package main

import (
	"context"
	"fmt"
	"time"

	"qurator/internal/ispider"
)

// fig7 is the paper's own evaluation path (§6, Figures 6 and 7): the
// ISPIDER host workflow with the §5.1 quality view embedded, enacted by
// one closed-loop caller. Serial and uncached, with in-process services,
// so annotation-store writes, the envelope codec and GC dominate while
// the cache, windows, HTTP and SPARQL do no work.
type fig7 struct {
	wp       ispider.WorldParams
	pipeline *ispider.Pipeline
	// want is the oracle: accepted identifications and filtered GO-term
	// counts of ispider.RunFigure7 on an identical world, computed once.
	wantKept  int
	wantTerms map[string]int
}

// fig7Filter is the §6.3 filter: keep only top-quality identifications.
const fig7Filter = "ScoreClass in q:high"

func newFig7(_ context.Context, seed int64, tr *tracer) (workload, error) {
	params := ispider.DefaultWorldParams()
	params.Seed = seed
	world, err := ispider.BuildWorld(params)
	if err != nil {
		return nil, err
	}
	p, err := ispider.BuildPipelineWith(world, ispider.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	if err := p.Compiled.SetFilterCondition("filter top k score", fig7Filter); err != nil {
		return nil, err
	}
	if tr != nil {
		decorateOperators(p.Services, tr)
		wrapStores(p.Repos, tr)
	}
	return &fig7{wp: params, pipeline: p}, nil
}

func (f *fig7) params() map[string]any {
	return map[string]any{
		"world_seed":         f.wp.Seed,
		"spots":              f.wp.SpotCount,
		"db_size":            f.wp.DBSize,
		"go_terms":           f.wp.GOTermCount,
		"view":               "paper §5.1 view",
		"filter":             fig7Filter,
		"data_plane":         "serial, uncached, in-process services",
		"callers":            1,
		"load":               "closed loop over Pipeline.Run",
		"oracle":             "accepted count and GO-term counts equal ispider.RunFigure7 at the same seed",
		"per_enact_searches": f.wp.SpotCount,
	}
}

func (f *fig7) close() {}

// reference computes the Figure-7 oracle from a separately built world.
func (f *fig7) reference() error {
	if f.wantTerms != nil {
		return nil
	}
	world, err := ispider.BuildWorld(f.wp)
	if err != nil {
		return err
	}
	fig, err := ispider.RunFigure7(world)
	if err != nil {
		return err
	}
	f.wantKept = fig.IdentificationsKept
	f.wantTerms = map[string]int{}
	for _, row := range fig.Rows {
		if row.Filtered > 0 {
			f.wantTerms[row.TermID] = row.Filtered
		}
	}
	return nil
}

func (f *fig7) check(out *ispider.RunOutput) error {
	if got := out.Accepted.Len(); got != f.wantKept {
		return fmt.Errorf("accepted %d identifications, Figure 7 keeps %d", got, f.wantKept)
	}
	for term, n := range out.TermCounts {
		if f.wantTerms[term] != n {
			return fmt.Errorf("GO term %s counted %d, Figure 7 has %d", term, n, f.wantTerms[term])
		}
	}
	for term, n := range f.wantTerms {
		if out.TermCounts[term] != n {
			return fmt.Errorf("GO term %s counted %d, Figure 7 has %d", term, out.TermCounts[term], n)
		}
	}
	return nil
}

func (f *fig7) drive(ctx context.Context, d time.Duration, tr *tracer) (*observed, error) {
	if err := f.reference(); err != nil {
		return nil, fmt.Errorf("figure 7 reference: %w", err)
	}
	obs := newObserved("enact")
	obs.topo = embedded
	start := time.Now()
	for time.Since(start) < d {
		var out *ispider.RunOutput
		began := time.Now()
		_, err := tracedEnactment(ctx, tr, func(ctx context.Context) error {
			var err error
			out, err = f.pipeline.Run(ctx)
			return err
		})
		took := time.Since(began)
		obs.attempted++
		if err != nil {
			obs.failed++
			continue
		}
		obs.series["enact"] = append(obs.series["enact"], ms(took))
		obs.enacts++
		obs.items += int64(len(out.Entries))
		obs.verify("fig7-vs-RunFigure7", f.check(out))
	}
	obs.elapsed = time.Since(start)
	obs.layer["imprint.searches_per_enact"] = float64(f.wp.SpotCount)
	return obs, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
