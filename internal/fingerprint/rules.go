// Package fingerprint identifies the implementations behind observed
// certificates and factored keys, reproducing Section 3.3 of the paper:
// certificate-subject fingerprints, shared-prime extrapolation, clique
// detection, the OpenSSL prime-generation fingerprint, bit-error
// classification, and the ISP man-in-the-middle detector.
package fingerprint

import (
	"strings"

	"github.com/factorable/weakkeys/internal/certs"
)

// Method records how a certificate was attributed to a vendor.
type Method int

const (
	// The zero Method is no attribution: no rule matched and no
	// extrapolation applied.
	_ Method = iota
	// BySubject: the distinguished name or SANs identified the vendor
	// (Section 3.3.1; 26,272,330 certificates in the paper).
	BySubject
	// BySharedPrime: an unlabeled certificate's factored prime appeared
	// in a labeled vendor's prime pool (Section 3.3.2).
	BySharedPrime
	// ByClique: the modulus belongs to a detected low-entropy clique
	// (the IBM 9-prime family).
	ByClique
)

func (m Method) String() string {
	switch m {
	case BySubject:
		return "subject"
	case BySharedPrime:
		return "shared-prime"
	case ByClique:
		return "clique"
	default:
		return "unlabeled"
	}
}

// Label is a vendor attribution for one certificate.
type Label struct {
	Vendor string
	Model  string
	Method Method
}

// SubjectRule maps certificate contents to a vendor/model.
type SubjectRule struct {
	// Name documents the rule.
	Name string
	// Match returns the label and true when the rule applies.
	Match func(c *certs.Certificate) (vendor, model string, ok bool)
}

// DefaultSubjectRules encodes the Section 3.3.1 heuristics. Order
// matters: specific device shapes run before the generic O=vendor rule.
func DefaultSubjectRules() []SubjectRule {
	return []SubjectRule{
		{
			Name: "juniper-system-generated",
			// Every Juniper certificate contained "CN=system generated".
			Match: func(c *certs.Certificate) (string, string, bool) {
				if c.Subject.CommonName == "system generated" {
					return "Juniper", "", true
				}
				return "", "", false
			},
		},
		{
			Name: "mcafee-default-dn",
			// McAfee SnapGear: the all-defaults distinguished name.
			Match: func(c *certs.Certificate) (string, string, bool) {
				if c.Subject.CommonName == "Default Common Name" &&
					c.Subject.Organization == "Default Organization" {
					return "McAfee", "SnapGear", true
				}
				return "", "", false
			},
		},
		{
			Name: "fritzbox-domains",
			// myfritz.net common names or fritz.box-family SANs.
			Match: func(c *certs.Certificate) (string, string, bool) {
				if strings.HasSuffix(c.Subject.CommonName, ".myfritz.net") {
					return "Fritz!Box", "", true
				}
				for _, san := range c.DNSNames {
					if san == "fritz.box" || strings.HasSuffix(san, ".fritz.box") ||
						san == "myfritz.box" || strings.HasSuffix(san, ".box") {
						return "Fritz!Box", "", true
					}
				}
				return "", "", false
			},
		},
		{
			Name: "dell-imaging-group",
			// The OU that shares prime material with Xerox.
			Match: func(c *certs.Certificate) (string, string, bool) {
				if c.Subject.OrganizationalUnit == "Dell Imaging Group" {
					return "Dell", "Imaging", true
				}
				return "", "", false
			},
		},
		{
			Name: "cisco-model-in-ou",
			// Cisco puts the model in the organizational unit.
			Match: func(c *certs.Certificate) (string, string, bool) {
				if strings.HasPrefix(c.Subject.Organization, "Cisco") {
					return "Cisco", c.Subject.OrganizationalUnit, true
				}
				return "", "", false
			},
		},
		{
			Name: "siemens-building-automation",
			Match: func(c *certs.Certificate) (string, string, bool) {
				if strings.HasPrefix(c.Subject.Organization, "Siemens") {
					return "Siemens", "Building Automation", true
				}
				return "", "", false
			},
		},
		{
			Name: "hp-organization",
			Match: func(c *certs.Certificate) (string, string, bool) {
				if c.Subject.Organization == "Hewlett-Packard" {
					return "HP", "iLO", true
				}
				return "", "", false
			},
		},
		{
			Name: "generic-o-vendor",
			// The paper's workhorse: "O=vendor" in the distinguished
			// name (Hewlett-Packard, Xerox, TP-LINK, Conel s.r.o., ...).
			Match: func(c *certs.Certificate) (string, string, bool) {
				o := c.Subject.Organization
				if o == "" || looksGenerated(o) {
					return "", "", false
				}
				return canonicalVendor(o), "", true
			},
		},
	}
}

// looksGenerated filters organization strings that are per-device noise
// rather than vendor identities (customer names on IBM cards, etc.).
func looksGenerated(o string) bool {
	return strings.HasPrefix(o, "Customer Site ")
}

// canonicalVendor strips common corporate suffixes so "Dell Inc." and
// "Dell" label the same vendor.
func canonicalVendor(o string) string {
	for _, suffix := range []string{" Inc.", " Inc", " Corp.", " Corp", " GmbH", ", Inc.", " Systems, Inc."} {
		o = strings.TrimSuffix(o, suffix)
	}
	return o
}

// LabelBySubject applies the rules in order and returns the first match.
func LabelBySubject(c *certs.Certificate, rules []SubjectRule) (Label, bool) {
	for _, r := range rules {
		if vendor, model, ok := r.Match(c); ok {
			return Label{Vendor: vendor, Model: model, Method: BySubject}, true
		}
	}
	return Label{}, false
}
