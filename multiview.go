package qurator

import (
	"fmt"

	"qurator/internal/compiler"
)

// Multi-view enactment (multi-query optimization): a fleet registering
// thousands of views pays N× for prefixes the views share — the same
// annotators, the same enrichment, the same QA services. MergeViews
// fingerprints the compiled subgraphs and enacts shared prefixes once,
// fanning per-view actions out from the shared consolidation, with
// per-view outputs bit-identical to independent enactment.

type (
	// MultiView is a set of compiled views merged into one enactable plan.
	MultiView = compiler.MultiView
	// ViewResult is one member view's slice of a merged enactment.
	ViewResult = compiler.ViewResult
)

// MergeViews merges compiled views into one plan with shared prefixes
// deduplicated (see compiler.MergeViews for the merge-safety rules).
func MergeViews(views ...*Compiled) (*MultiView, error) {
	return compiler.MergeViews(views...)
}

// CompileViewSet compiles each view XML with the framework's resilience
// and data-plane settings and merges the results into one plan. View
// names must be unique within the set.
func (f *Framework) CompileViewSet(viewXMLs ...[]byte) (*MultiView, error) {
	views := make([]*Compiled, 0, len(viewXMLs))
	for i, xml := range viewXMLs {
		c, err := f.CompileView(xml)
		if err != nil {
			return nil, fmt.Errorf("qurator: view %d of set: %w", i, err)
		}
		views = append(views, c)
	}
	return compiler.MergeViews(views...)
}
