// Package services implements Qurator's service fabric (paper §5): the
// user-extensible QA and Annotation operators are exposed as services that
// all share one interface and one message schema — the paper uses WSDL and
// an XML schema; here the common contract is the QualityService interface
// and the Envelope XML message, "effectively a concrete model for the data
// sets, evidence types and annotation maps described in abstract terms".
//
// Services can be invoked in-process or over HTTP (cmd/quratord hosts
// them); the Registry plays the role of Taverna's service scavenger,
// discovering the services deployed on a host.
package services

import (
	"encoding/xml"
	"fmt"
	"strconv"

	"qurator/internal/evidence"
	"qurator/internal/rdf"
)

// Envelope is the common message schema exchanged by all Qurator services.
type Envelope struct {
	XMLName xml.Name `xml:"Envelope"`
	// Service and Operation identify the call (informational on responses).
	Service   string `xml:"service,attr,omitempty"`
	Operation string `xml:"operation,attr,omitempty"`
	// Config carries per-call parameters (e.g. repositoryRef, conditions).
	Config Config `xml:"Config"`
	// DataSet is the ordered list of data items D.
	DataSet DataSet `xml:"DataSet"`
	// Annotations is the annotation map serialised row-wise.
	Annotations AnnotationMapXML `xml:"AnnotationMap"`
	// Groups carries splitter outputs (one named data set + map each).
	Groups []Group `xml:"Group,omitempty"`
	// Error carries a fault message on responses.
	Error string `xml:"Error,omitempty"`
}

// Config is a list of named string parameters.
type Config struct {
	Params []Param `xml:"param"`
}

// Param is one configuration parameter.
type Param struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Get returns the named parameter value and whether it was present.
func (c Config) Get(name string) (string, bool) {
	for _, p := range c.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Set appends or replaces a parameter.
func (c *Config) Set(name, value string) {
	for i, p := range c.Params {
		if p.Name == name {
			c.Params[i].Value = value
			return
		}
	}
	c.Params = append(c.Params, Param{Name: name, Value: value})
}

// DataSet is the ordered item list.
type DataSet struct {
	Items []ItemRef `xml:"item"`
}

// ItemRef references one data item by URI.
type ItemRef struct {
	URI string `xml:"uri,attr"`
}

// AnnotationMapXML is the row-wise serialisation of an evidence.Map.
type AnnotationMapXML struct {
	Entries []Entry `xml:"entry"`
}

// Entry is one (item, key, value) cell.
type Entry struct {
	Item  string `xml:"item,attr"`
	Key   string `xml:"key,attr"`
	Kind  string `xml:"kind,attr"`
	Value string `xml:"value,attr"`
}

// Group is one named splitter output.
type Group struct {
	Name        string           `xml:"name,attr"`
	DataSet     DataSet          `xml:"DataSet"`
	Annotations AnnotationMapXML `xml:"AnnotationMap"`
}

// NewEnvelope builds an envelope from an annotation map.
func NewEnvelope(m *evidence.Map) *Envelope {
	e := &Envelope{}
	e.SetMap(m)
	return e
}

// SetMap encodes the annotation map (items + entries) into the envelope.
func (e *Envelope) SetMap(m *evidence.Map) {
	e.DataSet, e.Annotations = encodeMap(m)
}

// Map decodes the envelope's data set and annotation map.
func (e *Envelope) Map() (*evidence.Map, error) {
	return decodeMap(e.DataSet, e.Annotations)
}

// SetGroups encodes splitter outputs. Group order follows names.
func (e *Envelope) SetGroups(groups map[string]*evidence.Map, order []string) {
	e.Groups = e.Groups[:0]
	for _, name := range order {
		m, ok := groups[name]
		if !ok {
			continue
		}
		ds, am := encodeMap(m)
		e.Groups = append(e.Groups, Group{Name: name, DataSet: ds, Annotations: am})
	}
}

// GroupMaps decodes the envelope's groups.
func (e *Envelope) GroupMaps() (map[string]*evidence.Map, error) {
	out := make(map[string]*evidence.Map, len(e.Groups))
	for _, g := range e.Groups {
		m, err := decodeMap(g.DataSet, g.Annotations)
		if err != nil {
			return nil, fmt.Errorf("services: group %q: %w", g.Name, err)
		}
		out[g.Name] = m
	}
	return out, nil
}

func encodeMap(m *evidence.Map) (DataSet, AnnotationMapXML) {
	var ds DataSet
	var am AnnotationMapXML
	if m == nil {
		return ds, am
	}
	keys := m.Keys()
	for _, item := range m.Items() {
		ds.Items = append(ds.Items, ItemRef{URI: item.Value()})
		for _, key := range keys {
			v := m.Get(item, key)
			if v.IsNull() {
				continue
			}
			am.Entries = append(am.Entries, Entry{
				Item:  item.Value(),
				Key:   key.Value(),
				Kind:  v.Kind().String(),
				Value: encodeValue(v),
			})
		}
	}
	return ds, am
}

func decodeMap(ds DataSet, am AnnotationMapXML) (*evidence.Map, error) {
	m := evidence.NewMap()
	for _, it := range ds.Items {
		if it.URI == "" {
			return nil, fmt.Errorf("services: data set item with empty URI")
		}
		m.AddItem(rdf.IRI(it.URI))
	}
	for _, entry := range am.Entries {
		v, err := decodeValue(entry.Kind, entry.Value)
		if err != nil {
			return nil, fmt.Errorf("services: entry (%s, %s): %w", entry.Item, entry.Key, err)
		}
		m.Set(rdf.IRI(entry.Item), rdf.IRI(entry.Key), v)
	}
	return m, nil
}

// encodeValue renders a value for the wire. Term values are written in
// N-Triples form so that kind, datatype and language survive the hop.
func encodeValue(v evidence.Value) string {
	if t, ok := v.AsTerm(); ok {
		return t.String()
	}
	return v.AsString()
}

func decodeValue(kind, raw string) (evidence.Value, error) {
	switch kind {
	case "float":
		v := evidence.String_(raw)
		f, ok := v.AsFloat()
		if !ok {
			return evidence.Null, fmt.Errorf("bad float %q", raw)
		}
		return evidence.Float(f), nil
	case "int":
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return evidence.Null, fmt.Errorf("bad int %q: %v", raw, err)
		}
		return evidence.Int(n), nil
	case "string":
		return evidence.String_(raw), nil
	case "bool":
		switch raw {
		case "true":
			return evidence.Bool(true), nil
		case "false":
			return evidence.Bool(false), nil
		}
		return evidence.Null, fmt.Errorf("bad bool %q", raw)
	case "term":
		// A raw value not in N-Triples form is a bare IRI, as written
		// by envelopes that predate the N-Triples encoding.
		t, err := rdf.ParseTerm(raw)
		if err != nil {
			t = rdf.IRI(raw)
		}
		return evidence.TermValue(t), nil
	default:
		return evidence.Null, fmt.Errorf("unknown value kind %q", kind)
	}
}

// Marshal renders the envelope as XML.
func (e *Envelope) Marshal() ([]byte, error) {
	return xml.MarshalIndent(e, "", "  ")
}

// UnmarshalEnvelope parses an envelope from XML.
func UnmarshalEnvelope(data []byte) (*Envelope, error) {
	var e Envelope
	if err := xml.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("services: bad envelope: %w", err)
	}
	return &e, nil
}
