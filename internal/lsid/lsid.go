// Package lsid implements Life Science Identifiers (LSIDs), the OMG URN
// scheme (urn:lsid:authority:namespace:object[:revision]) that Qurator uses
// to wrap native data identifiers — e.g. Uniprot accession numbers — as
// URIs so they can appear as RDF resources in annotation graphs (paper §3).
package lsid

import (
	"fmt"
	"strings"
)

// Scheme is the URN prefix shared by all LSIDs.
const Scheme = "urn:lsid:"

// LSID is a parsed Life Science Identifier.
type LSID struct {
	// Authority is the DNS-style naming authority, e.g. "uniprot.org".
	Authority string
	// Namespace scopes the object within the authority, e.g. "uniprot".
	Namespace string
	// Object is the authority-assigned identifier, e.g. "P30089".
	Object string
	// Revision optionally versions the object; empty if absent.
	Revision string
}

// New constructs an LSID, validating each component.
func New(authority, namespace, object string) (LSID, error) {
	l := LSID{Authority: authority, Namespace: namespace, Object: object}
	if err := l.Validate(); err != nil {
		return LSID{}, err
	}
	return l, nil
}

// Parse parses an LSID URN string.
func Parse(s string) (LSID, error) {
	lower := strings.ToLower(s)
	if !strings.HasPrefix(lower, Scheme) {
		return LSID{}, fmt.Errorf("lsid: %q does not start with %q", s, Scheme)
	}
	rest := s[len(Scheme):]
	parts := strings.Split(rest, ":")
	if len(parts) < 3 || len(parts) > 4 {
		return LSID{}, fmt.Errorf("lsid: %q must have 3 or 4 colon-separated components after the scheme", s)
	}
	l := LSID{Authority: parts[0], Namespace: parts[1], Object: parts[2]}
	if len(parts) == 4 {
		l.Revision = parts[3]
	}
	if err := l.Validate(); err != nil {
		return LSID{}, err
	}
	return l, nil
}

// IsLSID reports whether s parses as a valid LSID.
func IsLSID(s string) bool {
	_, err := Parse(s)
	return err == nil
}

// Validate checks that all mandatory components are present and contain no
// reserved characters.
func (l LSID) Validate() error {
	check := func(name, v string, required bool) error {
		if v == "" {
			if required {
				return fmt.Errorf("lsid: empty %s", name)
			}
			return nil
		}
		if strings.ContainsAny(v, ": \t\n") {
			return fmt.Errorf("lsid: %s %q contains reserved characters", name, v)
		}
		return nil
	}
	if err := check("authority", l.Authority, true); err != nil {
		return err
	}
	if err := check("namespace", l.Namespace, true); err != nil {
		return err
	}
	if err := check("object", l.Object, true); err != nil {
		return err
	}
	return check("revision", l.Revision, false)
}

// String renders the LSID as a URN.
func (l LSID) String() string {
	s := Scheme + l.Authority + ":" + l.Namespace + ":" + l.Object
	if l.Revision != "" {
		s += ":" + l.Revision
	}
	return s
}

// WithRevision returns a copy of l carrying the given revision.
func (l LSID) WithRevision(rev string) LSID {
	l.Revision = rev
	return l
}

// Wrap converts a native identifier into an LSID URN under the given
// authority and namespace — the paper's "LSID-wrapper" for accession
// numbers (§3). It is the inverse of Unwrap for valid native IDs.
func Wrap(authority, namespace, nativeID string) (string, error) {
	l, err := New(authority, namespace, nativeID)
	if err != nil {
		return "", err
	}
	return l.String(), nil
}

// MustWrap is Wrap that panics on invalid input.
func MustWrap(authority, namespace, nativeID string) string {
	s, err := Wrap(authority, namespace, nativeID)
	if err != nil {
		panic(err)
	}
	return s
}

// Unwrap extracts the native identifier (the object component) from an
// LSID URN.
func Unwrap(urn string) (string, error) {
	l, err := Parse(urn)
	if err != nil {
		return "", err
	}
	return l.Object, nil
}
