package lsid

import (
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in   string
		want LSID
	}{
		{"urn:lsid:uniprot.org:uniprot:P30089", LSID{"uniprot.org", "uniprot", "P30089", ""}},
		{"urn:lsid:ebi.ac.uk:goa:GO_0005515", LSID{"ebi.ac.uk", "goa", "GO_0005515", ""}},
		{"urn:lsid:pedro.man.ac.uk:peaklist:spot42:v2", LSID{"pedro.man.ac.uk", "peaklist", "spot42", "v2"}},
		{"URN:LSID:x.org:ns:obj", LSID{"x.org", "ns", "obj", ""}}, // case-insensitive scheme
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	bad := []string{
		"",
		"urn:lsid:",
		"urn:lsid:auth",
		"urn:lsid:auth:ns",
		"urn:lsid:auth:ns:obj:rev:extra",
		"urn:lsid::ns:obj",
		"urn:lsid:auth::obj",
		"urn:lsid:auth:ns:",
		"http://example.org/P30089",
		"lsid:auth:ns:obj",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
		if IsLSID(s) {
			t.Errorf("IsLSID(%q) should be false", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	ids := []LSID{
		{"uniprot.org", "uniprot", "P30089", ""},
		{"a.b", "c", "d", "r1"},
	}
	for _, l := range ids {
		back, err := Parse(l.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", l.String(), err)
			continue
		}
		if back != l {
			t.Errorf("round trip %v -> %v", l, back)
		}
	}
}

func TestWrapUnwrap(t *testing.T) {
	urn, err := Wrap("uniprot.org", "uniprot", "P30089")
	if err != nil {
		t.Fatal(err)
	}
	if urn != "urn:lsid:uniprot.org:uniprot:P30089" {
		t.Errorf("Wrap = %q", urn)
	}
	native, err := Unwrap(urn)
	if err != nil {
		t.Fatal(err)
	}
	if native != "P30089" {
		t.Errorf("Unwrap = %q", native)
	}
	if _, err := Wrap("", "ns", "x"); err == nil {
		t.Error("Wrap with empty authority should fail")
	}
	if _, err := Unwrap("not-an-lsid"); err == nil {
		t.Error("Unwrap of non-LSID should fail")
	}
}

func TestWithRevision(t *testing.T) {
	l, err := New("a.org", "ns", "obj")
	if err != nil {
		t.Fatal(err)
	}
	r := l.WithRevision("v3")
	if r.Revision != "v3" || l.Revision != "" {
		t.Errorf("WithRevision mutated receiver or failed: %+v / %+v", l, r)
	}
	if r.String() != "urn:lsid:a.org:ns:obj:v3" {
		t.Errorf("String = %q", r.String())
	}
}

func TestValidateReservedCharacters(t *testing.T) {
	bad := []LSID{
		{"a b", "ns", "obj", ""},
		{"a.org", "n:s", "obj", ""},
		{"a.org", "ns", "ob\tj", ""},
		{"a.org", "ns", "obj", "r v"},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("Validate(%+v) should fail", l)
		}
	}
}

// Property: Wrap followed by Unwrap is the identity on identifiers free of
// reserved characters.
func TestWrapUnwrapProperty(t *testing.T) {
	f := func(raw string) bool {
		id := ""
		for _, r := range raw {
			if r > ' ' && r != ':' && r < 127 {
				id += string(r)
			}
		}
		if id == "" {
			return true
		}
		urn, err := Wrap("test.org", "ns", id)
		if err != nil {
			return false
		}
		back, err := Unwrap(urn)
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
