package certs

import (
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// PEM block types used by this package. The certificate block carries the
// package's own DER encoding (it is not interoperable with RFC 5280 — see
// the package comment); the key blocks carry a minimal DER structure with
// the RSA parameters.
const (
	PEMCertificateType = "WEAKKEYS CERTIFICATE"
	PEMModulusType     = "WEAKKEYS RSA MODULUS"
)

// ParsePEM reads the first certificate PEM block from data.
func ParsePEM(data []byte) (*Certificate, error) {
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			return nil, errors.New("certs: no certificate PEM block found")
		}
		if block.Type == PEMCertificateType {
			return Parse(block.Bytes)
		}
	}
}

// EncodeModulusPEM writes a bare RSA modulus as a PEM block, the
// interchange format cmd/keygen and cmd/batchgcd share with the hex
// format.
func EncodeModulusPEM(w io.Writer, n *big.Int) error {
	return pem.Encode(w, &pem.Block{Type: PEMModulusType, Bytes: n.Bytes()})
}

// ParseModulusPEMs reads every modulus PEM block from data; a block whose
// value is not positive is an error naming its index.
func ParseModulusPEMs(data []byte) ([]*big.Int, error) {
	var out []*big.Int
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		if block.Type != PEMModulusType {
			continue
		}
		// An empty block or one of zero bytes is no modulus, as a hex line
		// of zero is none to cmd/batchgcd: nothing downstream divides by it.
		n := new(big.Int).SetBytes(block.Bytes)
		if n.Sign() <= 0 {
			return nil, fmt.Errorf("certs: modulus block %d is not positive", len(out))
		}
		out = append(out, n)
	}
	return out, nil
}
