package compiler

// Multi-query optimization (ROADMAP item 3): thousands of registered
// views share annotators, QA services, and enrichment structure — the
// paper's §7 point that views are reusable quality knowledge. MergeViews
// performs common-subexpression elimination at the workflow level: it
// fingerprints each compiled view's processor subgraphs (the same
// identity the data-plane cacheKey hashes: service, operation, config),
// builds ONE workflow in which identical prefixes appear once, and fans
// per-view action processors out from the shared consolidation. Enacting
// the merged plan returns per-view output maps bit-identical to enacting
// every view independently.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/qcache"
	"qurator/internal/rdf"
	"qurator/internal/telemetry"
	"qurator/internal/workflow"
)

// MQO metrics: how much structure a merged plan deduplicates.
var (
	mqoSharedPrefixes = telemetry.Default.GaugeVec(
		"qurator_mqo_shared_prefixes",
		"Quality-service processors shared by at least two views in a merged plan.",
		"plan")
	mqoSavedInvocations = telemetry.Default.CounterVec(
		"qurator_mqo_invocations_saved_total",
		"Quality-service invocations avoided by merged enactment versus enacting every member view independently.",
		"plan")
)

// identity digests one processor's own invocation identity — the same
// fields the data-plane cacheKey hashes (service name, operation, config
// in declared order) plus the compile-time mode and sharding scope. Two
// processors share an identity exactly when they would answer every
// request identically, which is also when they share qcache entries.
func (p *serviceProcessor) identity() *qcache.Key {
	info := p.svc.Describe()
	k := qcache.NewKey().Str("mqo1").Str(info.Name).Str(string(info.Scope)).
		Str(p.op).Str(fmt.Sprintf("%d", int(p.mode)))
	for _, prm := range p.snapshotConfig().Params {
		k.Str(prm.Name).Str(prm.Value)
	}
	return k
}

// viewPrints holds one view's subgraph fingerprints. A processor's
// fingerprint covers its own identity AND its whole upstream prefix, so
// equal fingerprints mean the subgraphs compute the same value:
//
//	annotator   = identity (annotators are roots)
//	enrichment  = identity + sorted annotator fingerprints
//	QA          = identity + enrichment fingerprint
//	consolidate = enrichment fingerprint + ORDERED QA fingerprints
//	              (consolidation order decides evidence.Map merge conflicts)
type viewPrints struct {
	anns   []string // declaration order, aligned with Compiled.annotators
	enrich string
	qas    []string // declaration order, aligned with Compiled.qas
	cons   string
}

func (c *Compiled) fingerprints() viewPrints {
	var fp viewPrints
	for _, p := range c.annotators {
		fp.anns = append(fp.anns, p.identity().Sum())
	}
	sorted := append([]string(nil), fp.anns...)
	sort.Strings(sorted)
	ek := c.enrichment.identity()
	for _, a := range sorted {
		ek.Str(a)
	}
	fp.enrich = ek.Sum()
	ck := qcache.NewKey().Str("cons").Str(fp.enrich)
	for _, p := range c.qas {
		s := p.identity().Str(fp.enrich).Sum()
		fp.qas = append(fp.qas, s)
		ck.Str(s)
	}
	fp.cons = ck.Sum()
	return fp
}

// renamedProcessor presents an existing processor instance under a new
// name so the same instance can join a merged workflow next to siblings
// that share its original name. Everything but the name — including
// runtime condition edits on the underlying processor — passes through.
type renamedProcessor struct {
	inner workflow.Processor
	name  string
}

func (r *renamedProcessor) Name() string          { return r.name }
func (r *renamedProcessor) InputPorts() []string  { return r.inner.InputPorts() }
func (r *renamedProcessor) OutputPorts() []string { return r.inner.OutputPorts() }
func (r *renamedProcessor) Execute(ctx context.Context, in workflow.Ports) (workflow.Ports, error) {
	return r.inner.Execute(ctx, in)
}

// renameGuarded renames a compiled quality-service processor for the
// merged graph. The rename sits INSIDE the degrade wrapper: the wrapper
// records failures under its inner processor's name, and per-view failure
// attribution needs the merged name there (EnactMap translates it back to
// each member view's own processor name afterwards).
func renameGuarded(p workflow.Processor, name string) workflow.Processor {
	if d, ok := p.(*degradeProcessor); ok {
		return &degradeProcessor{
			inner:  &renamedProcessor{inner: d.inner, name: name},
			pmode:  d.pmode,
			inPort: d.inPort,
		}
	}
	return &renamedProcessor{inner: p, name: name}
}

// mergedProcName namespaces a processor by its subgraph fingerprint so
// same-named processors from different prefixes coexist in one workflow.
func mergedProcName(orig, fp string) string { return orig + "@" + fp[:10] }

// memberView is one view's slice of the merged plan.
type memberView struct {
	view   *Compiled
	prefix string            // output namespace: "<view name>/"
	procs  map[string]string // merged quality-proc name → this view's own name
	// sharedCons is set when a sibling member reads the same consolidated
	// map, so degraded routing must write into a private copy.
	sharedCons bool
}

// MultiView is N compiled views merged into one enactable plan: shared
// annotator/enrichment/QA prefixes appear once, per-view actions fan out
// from the shared consolidations. Member views keep their run-time
// handles — SetFilterCondition and SetDegradedMode on a member apply to
// subsequent merged enactments too, because the merged plan reuses the
// member's processor instances (and therefore also its data-plane
// settings and qcache).
type MultiView struct {
	name    string
	wf      *workflow.Workflow
	members []*memberView

	sharedPrefixes int // quality-service processors used by ≥ 2 views
	mergedQuality  int // distinct quality-service processors in the plan
	totalQuality   int // Σ per-view quality-service processors
}

// mergeBuilder accumulates the first graph-construction error so the
// merge loop reads as structure, not error plumbing.
type mergeBuilder struct {
	wf  *workflow.Workflow
	err error
}

func (b *mergeBuilder) add(p workflow.Processor) {
	if b.err == nil {
		b.err = b.wf.AddProcessor(p)
	}
}
func (b *mergeBuilder) bindInput(name, proc, port string) {
	if b.err == nil {
		b.err = b.wf.BindInput(name, proc, port)
	}
}
func (b *mergeBuilder) bindOutput(name, proc, port string) {
	if b.err == nil {
		b.err = b.wf.BindOutput(name, proc, port)
	}
}
func (b *mergeBuilder) link(l workflow.Link) {
	if b.err == nil {
		b.err = b.wf.AddLink(l)
	}
}
func (b *mergeBuilder) control(c workflow.ControlLink) {
	if b.err == nil {
		b.err = b.wf.AddControlLink(c)
	}
}

// MergeViews builds a MultiView over the given compiled views. View names
// must be unique — they namespace the merged outputs ("<view>/<output>").
// A one-member plan takes its view's name, so enacting it is
// indistinguishable from enacting the view alone: same telemetry labels,
// span and provenance; larger plans are named "mqo:<n>@<digest>".
//
// Merged enactment runs every annotator once regardless of how many views
// declare it; that is equivalent to independent enactment because
// repository puts are set-semantic. What is NOT equivalent is an
// annotator write racing another view's enrichment read of the same
// (repository, evidence) cell, so MergeViews refuses view sets where
// different annotators of different views provide the same cell, or where
// a view reads a cell that only another view's annotator writes.
func MergeViews(views ...*Compiled) (*MultiView, error) {
	if len(views) == 0 {
		return nil, fmt.Errorf("compiler: MergeViews needs at least one view")
	}
	nameSeen := map[string]bool{}
	nameKey := qcache.NewKey().Str("mqo-plan")
	for _, v := range views {
		n := v.Workflow.Name()
		if nameSeen[n] {
			return nil, fmt.Errorf("compiler: duplicate view name %q in view set", n)
		}
		nameSeen[n] = true
		nameKey.Str(n)
	}
	prints := make([]viewPrints, len(views))
	for i, v := range views {
		prints[i] = v.fingerprints()
	}
	if err := checkAnnotatorConflicts(views, prints); err != nil {
		return nil, err
	}

	mv := &MultiView{name: views[0].Workflow.Name()}
	if len(views) > 1 {
		mv.name = fmt.Sprintf("mqo:%d@%s", len(views), nameKey.Sum()[:10])
	}
	b := &mergeBuilder{wf: workflow.New(mv.name)}
	shared := map[string]string{}        // subgraph fingerprint → merged proc name
	usedBy := map[string]int{}           // merged quality-proc name → #views
	consOf := make([]string, len(views)) // member → merged consolidation name
	consUsers := map[string]int{}        // merged consolidation name → #views
	for i, v := range views {
		fp := prints[i]
		member := &memberView{
			view:   v,
			prefix: v.Workflow.Name() + "/",
			procs:  map[string]string{},
		}
		mv.totalQuality += len(v.annotators) + 1 + len(v.qas)

		for j, p := range v.annotators {
			merged, ok := shared[fp.anns[j]]
			if !ok {
				merged = mergedProcName(p.name, fp.anns[j])
				guarded, _ := v.Workflow.Processor(p.name)
				b.add(renameGuarded(guarded, merged))
				b.bindInput(PortDataSet, merged, PortDataSet)
				shared[fp.anns[j]] = merged
			}
			if _, mine := member.procs[merged]; !mine {
				usedBy[merged]++
			}
			member.procs[merged] = p.name
		}

		em, ok := shared[fp.enrich]
		if !ok {
			em = mergedProcName(ProcEnrichment, fp.enrich)
			guarded, _ := v.Workflow.Processor(ProcEnrichment)
			b.add(renameGuarded(guarded, em))
			b.bindInput(PortDataSet, em, PortDataSet)
			for j := range v.annotators {
				b.control(workflow.ControlLink{From: shared[fp.anns[j]], To: em})
			}
			shared[fp.enrich] = em
		}
		usedBy[em]++
		member.procs[em] = ProcEnrichment

		for j, p := range v.qas {
			merged, ok := shared[fp.qas[j]]
			if !ok {
				merged = mergedProcName(p.name, fp.qas[j])
				guarded, _ := v.Workflow.Processor(p.name)
				b.add(renameGuarded(guarded, merged))
				b.link(workflow.Link{
					From: em, FromPort: PortAnnotations,
					To: merged, ToPort: PortAnnotations,
				})
				shared[fp.qas[j]] = merged
			}
			if _, mine := member.procs[merged]; !mine {
				usedBy[merged]++
			}
			member.procs[merged] = p.name
		}

		cm, ok := shared[fp.cons]
		if !ok {
			cm = mergedProcName(ProcConsolidate, fp.cons)
			cons := &consolidateProcessor{name: cm}
			if len(v.qas) == 0 {
				cons.inputs = []string{"in0"}
				b.add(cons)
				b.link(workflow.Link{From: em, FromPort: PortAnnotations, To: cm, ToPort: "in0"})
			} else {
				for j := range v.qas {
					cons.inputs = append(cons.inputs, fmt.Sprintf("in%d", j))
				}
				b.add(cons)
				for j := range v.qas {
					b.link(workflow.Link{
						From: shared[fp.qas[j]], FromPort: PortAnnotations,
						To: cm, ToPort: fmt.Sprintf("in%d", j),
					})
				}
			}
			shared[fp.cons] = cm
		}
		consOf[i] = cm
		consUsers[cm]++
		b.bindOutput(member.prefix+OutputAnnotations, cm, PortAnnotations)

		// Actions are never shared: their conditions are per-view and
		// runtime-mutable. Reuse each view's own instances so condition
		// edits propagate, renamed into the view's namespace.
		for _, act := range v.Resolved.Actions {
			p := v.actions[act.Name]
			merged := member.prefix + p.name
			b.add(&renamedProcessor{inner: p, name: merged})
			b.link(workflow.Link{
				From: cm, FromPort: PortAnnotations,
				To: merged, ToPort: PortAnnotations,
			})
			for _, port := range p.outs {
				b.bindOutput(member.prefix+outputName(act.Name, port), merged, port)
			}
		}

		mv.members = append(mv.members, member)
	}
	if b.err != nil {
		return nil, fmt.Errorf("compiler: merging views: %w", b.err)
	}
	if err := b.wf.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: merged plan invalid: %w", err)
	}
	mv.wf = b.wf
	for i, m := range mv.members {
		m.sharedCons = consUsers[consOf[i]] > 1
	}
	for _, n := range usedBy {
		mv.mergedQuality++
		if n >= 2 {
			mv.sharedPrefixes++
		}
	}
	if len(views) > 1 { // a one-member plan reports no MQO series, like the view alone
		mqoSharedPrefixes.With(mv.name).Set(float64(mv.sharedPrefixes))
	}
	return mv, nil
}

// checkAnnotatorConflicts refuses merges whose annotator writes would
// race sibling views' enrichment reads (see MergeViews doc).
func checkAnnotatorConflicts(views []*Compiled, prints []viewPrints) error {
	type provider struct {
		view, svc, fp string
	}
	cell := func(repo string, ev rdf.Term) string {
		return repo + "|" + ev.String()
	}
	// Only providers from different views conflict: a view's own
	// enrichment waits for all of its annotators, in the merged plan as
	// alone, but not for a sibling view's distinct writer.
	providers := map[string][]provider{}
	for i, v := range views {
		vname := v.Workflow.Name()
		for j, ann := range v.Resolved.Annotators {
			fp := prints[i].anns[j]
			for _, pv := range ann.Provides {
				c := cell(pv.Repository, pv.Evidence)
				for _, prev := range providers[c] {
					if prev.view != vname && prev.fp != fp {
						return fmt.Errorf(
							"compiler: cannot merge: annotators %q (view %q) and %q (view %q) both provide evidence %v in repository %q",
							prev.svc, prev.view, ann.Decl.ServiceName, vname, pv.Evidence, pv.Repository)
					}
				}
				providers[c] = append(providers[c], provider{view: vname, svc: ann.Decl.ServiceName, fp: fp})
			}
		}
	}
	for _, v := range views {
		own := map[string]bool{}
		for _, ann := range v.Resolved.Annotators {
			for _, pv := range ann.Provides {
				own[cell(pv.Repository, pv.Evidence)] = true
			}
		}
		for ev, repo := range v.Resolved.EvidenceRepo {
			c := cell(repo, ev)
			if ps := providers[c]; len(ps) > 0 && !own[c] {
				return fmt.Errorf(
					"compiler: cannot merge: view %q reads evidence %v from repository %q, which annotator %q (view %q) writes — merged ordering would differ from independent enactment",
					v.Workflow.Name(), ev, repo, ps[0].svc, ps[0].view)
			}
		}
	}
	return nil
}

// Name returns the merged plan's name: the view's own name for a
// one-member plan, "mqo:<n>@<digest>" otherwise.
func (mv *MultiView) Name() string { return mv.name }

// Views returns the member views in merge order.
func (mv *MultiView) Views() []*Compiled {
	out := make([]*Compiled, len(mv.members))
	for i, m := range mv.members {
		out[i] = m.view
	}
	return out
}

// Workflow exposes the merged workflow for inspection.
func (mv *MultiView) Workflow() *workflow.Workflow { return mv.wf }

// SharedPrefixes reports how many quality-service processors in the
// merged plan serve two or more views.
func (mv *MultiView) SharedPrefixes() int { return mv.sharedPrefixes }

// SavedPerEnactment reports how many quality-service invocations one
// merged enactment avoids versus enacting every member independently
// (ignoring data-plane sharding, which multiplies both sides equally).
func (mv *MultiView) SavedPerEnactment() int { return mv.totalQuality - mv.mergedQuality }

// ViewResult is one member view's slice of a merged enactment.
type ViewResult struct {
	// Outputs is keyed by the view's own output names — "<action>:<port>",
	// OutputAnnotations, and QuarantineOutput under DegradeQuarantine —
	// exactly what independent enactment of the view would return.
	Outputs map[string]*evidence.Map
	// Err is set when a quality service in this view's subgraph failed
	// for good and the view's degraded mode is off: independent enactment
	// would have aborted this view. Sibling views are unaffected.
	Err error
}

// Enact runs the merged plan over a data set and returns every member
// view's results keyed by view name.
func (mv *MultiView) Enact(ctx context.Context, items []evidence.Item) (map[string]ViewResult, error) {
	return mv.EnactMap(ctx, evidence.NewMap(items...))
}

// EnactMap is Enact over a prepared evidence map (items may already carry
// inline evidence, as in streaming windows). The shared prefixes execute
// once; per-view failures are then attributed through each view's own
// degraded-mode policy, so one view's failed QA aborts (or degrades) that
// view alone. The returned error is reserved for whole-plan failures.
func (mv *MultiView) EnactMap(ctx context.Context, in *evidence.Map) (map[string]ViewResult, error) {
	started := time.Now()
	ctx, span := telemetry.StartSpan(ctx, "enact:"+mv.name)
	outer, hasOuter := FailureLogFrom(ctx)
	// The merged run always carries its own log: a terminal failure in a
	// shared prefix must degrade (per view) instead of aborting siblings.
	log := NewFailureLog()
	ctx = WithFailureLog(ctx, log)
	out, err := mv.wf.Execute(ctx, workflow.Ports{PortDataSet: in})
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	span.End()
	if len(mv.members) > 1 {
		mqoSavedInvocations.With(mv.name).Add(uint64(mv.SavedPerEnactment()))
	}

	failures := log.Failures()
	results := make(map[string]ViewResult, len(mv.members))
	for _, member := range mv.members {
		v := member.view
		vname := v.Workflow.Name()
		mode := v.DegradedMode() // read once, like Compiled.Execute

		// This view's failures, translated back to its own processor
		// names so degraded-evidence markers match independent enactment.
		var vfail []Failure
		for _, f := range failures {
			if orig, ok := member.procs[f.Processor]; ok {
				g := f
				g.Processor = orig
				vfail = append(vfail, g)
				if hasOuter {
					outer.add(g)
				}
			}
		}
		if mode == DegradeOff && len(vfail) > 0 {
			results[vname] = ViewResult{Err: fmt.Errorf("compiler: view %q: %w", vname, vfail[0].Err)}
			continue
		}

		vout := workflow.Ports{}
		for _, name := range v.Outputs {
			vout[name] = out[member.prefix+name]
		}
		// Degraded routing writes markers into the consolidated map, so a
		// view whose consolidation a sibling also reads gets its own copy.
		if ann, ok := out[member.prefix+OutputAnnotations].(*evidence.Map); ok {
			if member.sharedCons {
				ann = ann.Clone()
			}
			vout[OutputAnnotations] = ann
		}
		if mode != DegradeOff {
			vlog := NewFailureLog()
			for _, f := range vfail {
				vlog.add(f)
			}
			v.applyDegradedRouting(vout, vlog, mode)
		}

		res := ViewResult{Outputs: make(map[string]*evidence.Map, len(vout))}
		for name, val := range vout {
			m, ok := val.(*evidence.Map)
			if !ok {
				return nil, fmt.Errorf("compiler: merged output %q is %T, not *evidence.Map", member.prefix+name, val)
			}
			res.Outputs[name] = m
		}
		results[vname] = res
		v.recordRun(started, span.TraceID, in, vout)
	}
	return results, nil
}

// Describe renders the merged plan structure with per-view membership —
// the MQO counterpart of Compiled.Describe.
func (mv *MultiView) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "merged plan %s (%d views, %d shared prefixes, %d invocations saved per enactment)\n",
		mv.name, len(mv.members), mv.sharedPrefixes, mv.SavedPerEnactment())
	for _, name := range mv.wf.Processors() {
		var views []string
		for _, m := range mv.members {
			if _, ok := m.procs[name]; ok {
				views = append(views, m.view.Workflow.Name())
			}
		}
		if strings.Contains(name, "/") || len(views) == 0 {
			fmt.Fprintf(&b, "  %-60s\n", name)
			continue
		}
		fmt.Fprintf(&b, "  %-60s views=%s\n", name, strings.Join(views, ","))
	}
	return b.String()
}
