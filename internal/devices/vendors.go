// Package devices encodes the vendor and device-model knowledge the paper
// builds its analysis on: the 2012 notification registry (Table 2), the
// OpenSSL-fingerprint classification (Table 5), per-vendor certificate
// subject templates (Section 3.3.1), and the device-side TLS-lite server
// the simulated scanner talks to.
package devices

import (
	"fmt"

	"github.com/factorable/weakkeys/internal/weakrsa"
)

// ResponseCategory classifies how a vendor responded to the February/March
// 2012 vulnerability notification (Table 2).
type ResponseCategory int

const (
	// PublicAdvisory: the vendor released a public security advisory.
	PublicAdvisory ResponseCategory = iota
	// PrivateResponse: the vendor responded substantively but never
	// published an advisory.
	PrivateResponse
	// AutoResponse: only an automated acknowledgement was received.
	AutoResponse
	// NoResponse: the vendor never responded at all.
	NoResponse
	// NotNotified2012: vendors that were not part of the 2012 RSA/TLS
	// notification (e.g. newly vulnerable vendors first contacted in
	// May 2016, Section 4.4).
	NotNotified2012
)

func (r ResponseCategory) String() string {
	switch r {
	case PublicAdvisory:
		return "public advisory"
	case PrivateResponse:
		return "private response"
	case AutoResponse:
		return "auto-response"
	case NoResponse:
		return "no response"
	case NotNotified2012:
		return "not notified in 2012"
	default:
		return fmt.Sprintf("ResponseCategory(%d)", int(r))
	}
}

// Vendor is an entry in the study's vendor registry.
type Vendor struct {
	// Name is the canonical vendor name used across the study.
	Name string
	// Response is the Table 2 notification outcome.
	Response ResponseCategory
	// OpenSSL is the ground-truth Table 5 classification; the
	// fingerprint pipeline re-derives it from factored primes and the
	// experiment harness compares the two.
	OpenSSL weakrsa.OpenSSLClass
	// AdvisoryMonth, for PublicAdvisory vendors, is the month the
	// advisory appeared, as "YYYY-MM".
	AdvisoryMonth string
	// SSHOnly marks vendors whose vulnerable keys were SSH host keys
	// rather than TLS certificates (Intel, Tropos).
	SSHOnly bool
}

// Registry lists the 37 vendors notified in 2012 about weak RSA keys
// (Table 2) plus the vendors that appear in the study's later analysis
// (newly vulnerable since 2012, Section 4.4; fingerprint-only entries from
// Table 5).
//
// Column placement caveat: the paper's Table 2 names all 37 vendors but
// the text only pins the category of those discussed in Section 4 (the
// five public advisories, Cisco's and HP's private responses, and the ten
// never-responders of Figure 9). The remaining vendors' categories below
// are a best-effort reconstruction of the table layout; no experiment
// depends on them beyond the aggregate "about half acknowledged receipt".
var Registry = []Vendor{
	// Public security advisories (five, Section 2.5/4.1). Juniper: April
	// + July 2012; Innominate: June 2012; IBM: September 2012 (CVE-2012-
	// 2187); Intel and Tropos published SSH-key disclosures.
	{Name: "Juniper", Response: PublicAdvisory, OpenSSL: weakrsa.OpenSSLNot, AdvisoryMonth: "2012-04"},
	{Name: "Innominate", Response: PublicAdvisory, OpenSSL: weakrsa.OpenSSLLikely, AdvisoryMonth: "2012-06"},
	{Name: "IBM", Response: PublicAdvisory, OpenSSL: weakrsa.OpenSSLLikely, AdvisoryMonth: "2012-09"},
	{Name: "Intel", Response: PublicAdvisory, AdvisoryMonth: "2012-06", SSHOnly: true},
	{Name: "Tropos", Response: PublicAdvisory, AdvisoryMonth: "2012-07", SSHOnly: true},

	// Substantive private responses (Section 4.2 discusses Cisco and HP).
	{Name: "Cisco", Response: PrivateResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "HP", Response: PrivateResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Emerson", Response: PrivateResponse},
	{Name: "Pogoplug", Response: PrivateResponse},
	{Name: "Brocade", Response: PrivateResponse},
	{Name: "NTI", Response: PrivateResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "2-Wire", Response: PrivateResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Sinetica", Response: PrivateResponse},

	// Automated acknowledgements only.
	{Name: "AudioCodes", Response: AutoResponse},
	{Name: "Motorola", Response: AutoResponse},
	{Name: "SkyStream", Response: AutoResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Ruckus", Response: AutoResponse},
	{Name: "Kyocera", Response: AutoResponse},

	// Never responded. The majority of contacted vendors fall here
	// (Section 5.1); Figure 9 names ten, D-Link is confirmed in 4.4, and
	// the remainder of the reconstruction lands here so that exactly
	// "about half" (18 of 37) acknowledged receipt in some form.
	{Name: "Sentry", Response: NoResponse},
	{Name: "Hillstone Networks", Response: NoResponse},
	{Name: "Haivision", Response: NoResponse},
	{Name: "Pronto", Response: NoResponse},
	{Name: "BelAir", Response: NoResponse},
	{Name: "Simton", Response: NoResponse},
	{Name: "JDSU", Response: NoResponse},
	{Name: "MRV", Response: NoResponse},
	{Name: "Thomson", Response: NoResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Fritz!Box", Response: NoResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Linksys", Response: NoResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Fortinet", Response: NoResponse, OpenSSL: weakrsa.OpenSSLNot},
	{Name: "ZyXEL", Response: NoResponse, OpenSSL: weakrsa.OpenSSLNot},
	// Dell: the paper's Table 5 lists Dell under "satisfy", but the Dell
	// population this simulation models is the Imaging Group line that
	// shares Xerox's (non-OpenSSL) stack — so the simulation's ground
	// truth is OpenSSLNot. See DESIGN.md.
	{Name: "Dell", Response: NoResponse, OpenSSL: weakrsa.OpenSSLNot},
	{Name: "Kronos", Response: NoResponse, OpenSSL: weakrsa.OpenSSLNot},
	{Name: "Xerox", Response: NoResponse, OpenSSL: weakrsa.OpenSSLNot},
	{Name: "McAfee", Response: NoResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "TP-LINK", Response: NoResponse, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "D-Link", Response: NoResponse, OpenSSL: weakrsa.OpenSSLLikely},

	// Newly vulnerable since 2012 (Section 4.4), contacted May 2016.
	{Name: "Huawei", Response: NotNotified2012, OpenSSL: weakrsa.OpenSSLNot},
	{Name: "ADTRAN", Response: NotNotified2012, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Sangfor", Response: NotNotified2012, OpenSSL: weakrsa.OpenSSLLikely},
	{Name: "Schmid Telecom", Response: NotNotified2012, OpenSSL: weakrsa.OpenSSLLikely},

	// Fingerprint-identified vendors without their own notification row.
	{Name: "Siemens", Response: NotNotified2012, OpenSSL: weakrsa.OpenSSLNot},
	{Name: "Conel s.r.o.", Response: NotNotified2012, OpenSSL: weakrsa.OpenSSLLikely},
}

// ByName returns the registry entry for name, or nil.
func ByName(name string) *Vendor {
	for i := range Registry {
		if Registry[i].Name == name {
			return &Registry[i]
		}
	}
	return nil
}

// Notified2012 returns the vendors contacted in the 2012 disclosure.
func Notified2012() []Vendor {
	var out []Vendor
	for _, v := range Registry {
		if v.Response != NotNotified2012 {
			out = append(out, v)
		}
	}
	return out
}
