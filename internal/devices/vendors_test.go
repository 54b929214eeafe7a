package devices

import (
	"testing"

	"github.com/factorable/weakkeys/internal/weakrsa"
)

func TestRegistry37Notified(t *testing.T) {
	if got := len(Notified2012()); got != 37 {
		t.Errorf("notified vendors = %d, want the paper's 37", got)
	}
}

func TestRegistryFivePublicAdvisories(t *testing.T) {
	counts := map[ResponseCategory]int{}
	for _, v := range Notified2012() {
		counts[v.Response]++
	}
	if counts[PublicAdvisory] != 5 {
		t.Errorf("public advisories = %d, want 5", counts[PublicAdvisory])
	}
	// "About half of the vendors acknowledged receipt" — advisories,
	// private and auto responses together.
	acked := counts[PublicAdvisory] + counts[PrivateResponse] + counts[AutoResponse]
	if acked < 14 || acked > 23 {
		t.Errorf("acknowledged = %d, want about half of 37", acked)
	}
}

func TestRegistryNoDuplicates(t *testing.T) {
	seen := make(map[string]bool)
	for _, v := range Registry {
		if seen[v.Name] {
			t.Errorf("duplicate vendor %q", v.Name)
		}
		seen[v.Name] = true
	}
}

func TestByName(t *testing.T) {
	v := ByName("Juniper")
	if v == nil || v.Response != PublicAdvisory || v.OpenSSL != weakrsa.OpenSSLNot {
		t.Errorf("Juniper entry wrong: %+v", v)
	}
	if ByName("Acme") != nil {
		t.Error("unknown vendor should be nil")
	}
}

func TestTLSAdvisoryVendors(t *testing.T) {
	// Only three vendors with HTTPS RSA vulnerabilities released a
	// public advisory and patch in 2012: Juniper, Innominate, IBM
	// (Section 5.3). Intel and Tropos advisories were SSH-only.
	var tlsAdvisories []string
	for _, v := range Registry {
		if v.Response == PublicAdvisory && !v.SSHOnly {
			tlsAdvisories = append(tlsAdvisories, v.Name)
		}
	}
	if len(tlsAdvisories) != 3 {
		t.Errorf("TLS advisories: %v, want Juniper/Innominate/IBM", tlsAdvisories)
	}
}

func TestOpenSSLClassifications(t *testing.T) {
	// Spot-check Table 5 membership.
	likely := []string{"Cisco", "HP", "IBM", "Innominate", "McAfee", "TP-LINK", "Thomson", "Fritz!Box", "Linksys", "D-Link", "Sangfor", "Schmid Telecom"}
	// Dell deviates from the paper's Table 5 here because the simulated
	// Dell population is the Xerox-stack Imaging line (see vendors.go).
	not := []string{"Juniper", "Fortinet", "Huawei", "Kronos", "Siemens", "Xerox", "ZyXEL", "Dell"}
	for _, name := range likely {
		if v := ByName(name); v == nil || v.OpenSSL != weakrsa.OpenSSLLikely {
			t.Errorf("%s should satisfy the OpenSSL fingerprint", name)
		}
	}
	for _, name := range not {
		if v := ByName(name); v == nil || v.OpenSSL != weakrsa.OpenSSLNot {
			t.Errorf("%s should not satisfy the OpenSSL fingerprint", name)
		}
	}
}

func TestStringers(t *testing.T) {
	if PublicAdvisory.String() != "public advisory" || NoResponse.String() != "no response" {
		t.Error("ResponseCategory strings wrong")
	}
	if ResponseCategory(99).String() == "" {
		t.Error("unknown category should stringify")
	}
	if weakrsa.OpenSSLLikely.String() == "" || weakrsa.OpenSSLNot.String() == "" || weakrsa.OpenSSLUnknown.String() == "" {
		t.Error("OpenSSLClass strings empty")
	}
	if KeyHealthy.String() != "healthy" || KeySharedPrime.String() != "shared-prime" || KeyClique.String() != "clique" {
		t.Error("KeyMode strings wrong")
	}
	if KeyMode(9).String() == "" {
		t.Error("unknown KeyMode should stringify")
	}
}

func TestProfiles(t *testing.T) {
	id := Identity{IP: "192.0.2.7", Serial: 1234, Model: "RV082"}

	if got := ProfileJuniper.Subject(id); got.CommonName != "system generated" || got.Organization != "" {
		t.Errorf("Juniper subject: %v", got)
	}
	if !ProfileJuniper.IdentifiedBySubject {
		t.Error("Juniper is identified by its distinctive CN")
	}

	cisco := ProfileCisco("RV082")
	if got := cisco.Subject(id); got.OrganizationalUnit != "RV082" {
		t.Errorf("Cisco OU should carry the model: %v", got)
	}

	if got := ProfileMcAfee.Subject(id); got.CommonName != "Default Common Name" {
		t.Errorf("McAfee subject: %v", got)
	}

	if ProfileIBM.IdentifiedBySubject {
		t.Error("IBM certificates carry no vendor info")
	}
	if ProfileIBM.VulnerableKeyMode != KeyClique {
		t.Error("IBM uses the clique failure")
	}

	fb := ProfileFritzBox
	sans := fb.DNSNames(id)
	found := false
	for _, s := range sans {
		if s == "fritz.box" {
			found = true
		}
	}
	if !found {
		t.Errorf("Fritz!Box SANs missing fritz.box: %v", sans)
	}
	if ProfileFritzBoxIPOnly.Subject(id).CommonName != "192.0.2.7" {
		t.Error("IP-only Fritz!Box subject should be the IP")
	}

	g := GenericProfile("ZyXEL", KeySharedPrime, 0)
	if g.Subject(id).Organization != "ZyXEL" {
		t.Error("generic profile should carry O=vendor")
	}
}

func TestCiscoModelsHaveEOL(t *testing.T) {
	if len(CiscoModels) != 5 {
		t.Errorf("Figure 7 tracks 5 model lines, have %d", len(CiscoModels))
	}
	for _, m := range CiscoModels {
		if m.EOL == "" {
			t.Errorf("model %s missing EOL month", m.Model)
		}
	}
}
