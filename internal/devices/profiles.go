package devices

import (
	"fmt"

	"github.com/factorable/weakkeys/internal/certs"
	"github.com/factorable/weakkeys/internal/weakrsa"
)

// KeyMode describes how a device model's firmware generates its key, which
// determines the factoring failure mode batch GCD will see.
type KeyMode int

const (
	// KeyHealthy: unique primes per device; never factorable.
	KeyHealthy KeyMode = iota
	// KeySharedPrime: the boot-time entropy hole — devices share the
	// first prime and diverge on the second (Section 2.4).
	KeySharedPrime
	// KeyClique: the IBM failure — all keys are drawn from a tiny fixed
	// prime pool (9 primes, 36 possible keys; Section 3.3.2).
	KeyClique
	// KeyClosePrimes: both primes drawn from one narrow window, so the
	// modulus falls to a short Fermat ascent — the "When RSA Fails"
	// prime-selection flaw. Invisible to batch GCD: no prime is shared.
	KeyClosePrimes
	// KeySmallFactor: a broken primality test ships a tiny "prime", so
	// the anomaly probe's GCD with the small primes splits the modulus.
	KeySmallFactor
	// KeyUnsafeExponent: the modulus is honest but the firmware emits a
	// broken public exponent (e = 1, even e, or a tiny unsafe e).
	KeyUnsafeExponent
	// KeySharedModulus: the entire fleet ships one keypair baked into the
	// firmware image, so the same modulus serves every device identity.
	KeySharedModulus
)

func (m KeyMode) String() string {
	switch m {
	case KeyHealthy:
		return "healthy"
	case KeySharedPrime:
		return "shared-prime"
	case KeyClique:
		return "clique"
	case KeyClosePrimes:
		return "close-primes"
	case KeySmallFactor:
		return "small-factor"
	case KeyUnsafeExponent:
		return "unsafe-exponent"
	case KeySharedModulus:
		return "shared-modulus"
	default:
		return fmt.Sprintf("KeyMode(%d)", int(m))
	}
}

// Identity is the per-device data a profile's certificate template can
// draw on.
type Identity struct {
	// IP is the device's dotted-quad address.
	IP string
	// Serial is a per-device serial number.
	Serial int64
	// Model is the device model within the vendor's line, when the
	// vendor's certificates identify one (Cisco does; Juniper does not).
	Model string
}

// Profile describes one device family: who makes it, what its certificates
// look like, and how (badly) it generates keys. Profiles are the bridge
// between the population simulator and the fingerprint pipeline: the
// fingerprints must recover vendors from exactly the information the
// profile puts in the certificate.
type Profile struct {
	// Vendor is the canonical vendor name (matches Registry).
	Vendor string
	// Model of the device family; empty when certificates do not reveal
	// a model.
	Model string
	// Subject renders the certificate distinguished name for a device.
	Subject func(id Identity) certs.Name
	// DNSNames renders subject alternative names (nil for most vendors).
	DNSNames func(id Identity) []string
	// VulnerableKeyMode is the key-generation failure of the vulnerable
	// firmware line (devices that are vulnerable use this mode;
	// non-vulnerable devices of the same family use KeyHealthy).
	VulnerableKeyMode KeyMode
	// PrimeGen is the prime generation style of the implementation,
	// which drives the Table 5 OpenSSL fingerprint.
	PrimeGen weakrsa.PrimeGen
	// IdentifiedBySubject is true when Section 3.3.1 subject
	// fingerprinting can label the vendor from the certificate alone.
	// False for IBM (anonymous certificates, identified by the clique
	// moduli) and for the IP-only Fritz!Box certificates.
	IdentifiedBySubject bool
}

func ip4(id Identity) string { return id.IP }

// Profiles for the vendors whose behaviour the paper's figures track.
// Subject shapes follow Section 3.3.1 verbatim where the paper quotes
// them.
var (
	// Juniper SRX/ScreenOS devices: every certificate carries the bare
	// "CN=system generated" with no vendor or model information.
	ProfileJuniper = Profile{
		Vendor: "Juniper",
		Subject: func(id Identity) certs.Name {
			return certs.Name{CommonName: "system generated"}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeNaive, // Table 5: not OpenSSL
		IdentifiedBySubject: true,
	}

	// Innominate mGuard industrial security appliances.
	ProfileInnominate = Profile{
		Vendor: "Innominate",
		Model:  "mGuard",
		Subject: func(id Identity) certs.Name {
			return certs.Name{CommonName: fmt.Sprintf("mGuard-%06d", id.Serial), Organization: "Innominate"}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: true,
	}

	// IBM Remote Supervisor Adapter II / BladeCenter Management Module:
	// certificates carry customer-supplied fields and nothing naming
	// IBM; identification is via the 36-key clique.
	ProfileIBM = Profile{
		Vendor: "IBM",
		Subject: func(id Identity) certs.Name {
			return certs.Name{
				CommonName:   ip4(id),
				Organization: fmt.Sprintf("Customer Site %03d", id.Serial%311),
			}
		},
		VulnerableKeyMode:   KeyClique,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: false,
	}

	// HP Integrated Lights-Out management cards.
	ProfileHP = Profile{
		Vendor: "HP",
		Model:  "iLO",
		Subject: func(id Identity) certs.Name {
			return certs.Name{
				CommonName:         fmt.Sprintf("ILO%010d", id.Serial),
				Organization:       "Hewlett-Packard",
				OrganizationalUnit: "ISS",
			}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: true,
	}

	// McAfee SnapGear: the all-defaults distinguished name the paper
	// quotes.
	ProfileMcAfee = Profile{
		Vendor: "McAfee",
		Model:  "SnapGear",
		Subject: func(id Identity) certs.Name {
			return certs.Name{
				CommonName:         "Default Common Name",
				Organization:       "Default Organization",
				OrganizationalUnit: "Default Unit",
			}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: true,
	}

	// Fritz!Box DSL modems: myfritz.net common names and fritz.box SANs
	// for most devices; a minority serve IP-only subjects and are
	// labelled only through shared-prime extrapolation (Section 3.3.2).
	ProfileFritzBox = Profile{
		Vendor: "Fritz!Box",
		Subject: func(id Identity) certs.Name {
			return certs.Name{CommonName: fmt.Sprintf("%012x.myfritz.net", uint64(id.Serial))}
		},
		DNSNames: func(id Identity) []string {
			return []string{"fritz.box", "www.fritz.box", "myfritz.box", "www.myfritz.box", "fritz.fonwlan.box"}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: true,
	}

	// ProfileFritzBoxIPOnly is the Fritz!Box sub-population whose
	// certificate subject identifies only an IP address in octets.
	ProfileFritzBoxIPOnly = Profile{
		Vendor: "Fritz!Box",
		Model:  "ip-only",
		Subject: func(id Identity) certs.Name {
			return certs.Name{CommonName: ip4(id)}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: false,
	}
)

// CiscoModels are the small-business lines of Figure 7, with their
// end-of-life announcement months (YYYY-MM; approximate within the
// simulation's month grid).
var CiscoModels = []struct {
	Model string
	EOL   string
}{
	{"RV082", "2013-04"},
	{"RV120W", "2014-01"},
	{"RV220W", "2014-07"},
	{"RV180", "2015-03"},
	{"SA520", "2013-10"},
}

// ProfileCisco builds the per-model Cisco profile: the organizational
// unit names the exact model, which is what lets the paper study
// end-of-life effects per model.
func ProfileCisco(model string) Profile {
	return Profile{
		Vendor: "Cisco",
		Model:  model,
		Subject: func(id Identity) certs.Name {
			return certs.Name{
				CommonName:         fmt.Sprintf("%s-%08d", model, id.Serial),
				Organization:       "Cisco Systems, Inc.",
				OrganizationalUnit: model,
			}
		},
		VulnerableKeyMode:   KeySharedPrime,
		PrimeGen:            weakrsa.PrimeOpenSSL,
		IdentifiedBySubject: true,
	}
}

// GenericProfile builds a plain "O=vendor" profile, the common pattern the
// paper notes for Hewlett-Packard, Xerox, TP-LINK and Conel s.r.o.; it
// serves for the Figure 9/10 vendors without documented special shapes.
func GenericProfile(vendor string, mode KeyMode, gen weakrsa.PrimeGen) Profile {
	return Profile{
		Vendor: vendor,
		Subject: func(id Identity) certs.Name {
			return certs.Name{
				CommonName:   fmt.Sprintf("device-%08d", id.Serial),
				Organization: vendor,
			}
		},
		VulnerableKeyMode:   mode,
		PrimeGen:            gen,
		IdentifiedBySubject: true,
	}
}

// ProfileDellImaging is the Dell Imaging Group line that shares prime
// factors with Xerox devices (the Fuji Xerox manufacturing partnership,
// Section 3.3.2).
var ProfileDellImaging = Profile{
	Vendor: "Dell",
	Model:  "Imaging",
	Subject: func(id Identity) certs.Name {
		return certs.Name{
			CommonName:         fmt.Sprintf("printer-%06d", id.Serial),
			Organization:       "Dell Inc.",
			OrganizationalUnit: "Dell Imaging Group",
		}
	},
	VulnerableKeyMode:   KeySharedPrime,
	PrimeGen:            weakrsa.PrimeNaive, // shares Xerox's (non-OpenSSL) stack
	IdentifiedBySubject: true,
}

// ProfileSiemens is the Siemens Building Automation interface whose
// moduli overlap the IBM clique (Section 3.3.2).
var ProfileSiemens = Profile{
	Vendor: "Siemens",
	Model:  "Building Automation",
	Subject: func(id Identity) certs.Name {
		return certs.Name{
			CommonName:   fmt.Sprintf("bacnet-%06d", id.Serial),
			Organization: "Siemens Building Automation",
		}
	},
	VulnerableKeyMode:   KeySharedPrime,
	PrimeGen:            weakrsa.PrimeNaive,
	IdentifiedBySubject: true,
}

// ProfileSiemensOverlap is the Siemens sub-population whose certificates
// carry moduli from the IBM prime clique (first seen February 2013,
// Section 3.3.2): same subject shape as ProfileSiemens, clique key mode.
// Its primes are the IBM pool's, hence OpenSSL-style.
var ProfileSiemensOverlap = Profile{
	Vendor:              "Siemens",
	Model:               "Building Automation",
	Subject:             ProfileSiemens.Subject,
	VulnerableKeyMode:   KeyClique,
	PrimeGen:            weakrsa.PrimeOpenSSL,
	IdentifiedBySubject: true,
}
