package stream

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qurator/internal/compiler"
	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/qvlang"
	"qurator/internal/telemetry"
)

// handlerOptions collects the host-side (non-query) configuration of the
// streaming endpoint.
type handlerOptions struct {
	journal       WindowJournal
	drift         *DriftConfig
	tightenAction string
	tightenCond   string
}

// HandlerOption configures Handler beyond what the request query can ask
// for.
type HandlerOption func(*handlerOptions)

// WithJournal attaches a window-emission journal to every stream served
// by the handler — the cluster layer's exactly-once hook.
func WithJournal(j WindowJournal) HandlerOption {
	return func(o *handlerOptions) { o.journal = j }
}

// WithDrift runs a quality-drift detector over every stream served by
// the handler. Point cfg.Registry at the registry backing the host's
// GET /stream/drift endpoint to make detector state inspectable.
func WithDrift(cfg DriftConfig) HandlerOption {
	return func(o *handlerOptions) { o.drift = &cfg }
}

// WithAutoTighten arms the drift detector's control loop: the first
// drift alert of a stream applies condition to the named filter action
// of the stream's view (single-view streams only — a merged multi-view
// plan has no one view to tighten). Requires WithDrift.
func WithAutoTighten(action, condition string) HandlerOption {
	return func(o *handlerOptions) {
		o.tightenAction, o.tightenCond = action, condition
	}
}

// CompileFunc produces a freshly-compiled quality view for one streaming
// request. Each request gets its own Compiled so concurrent streams never
// share mutable workflow state; the host (quratord, or a test) decides
// how the view is obtained — typically by compiling the request body's
// named view against its deployed framework.
type CompileFunc func(view string) (*compiler.Compiled, error)

// Handler serves POST /stream/enact: the request body is an NDJSON
// sequence of items (see DecodeItem), the response is an NDJSON sequence
// of decisions and window summaries, flushed window-by-window — the first
// decisions arrive while the request body is still being produced.
//
// Query parameters:
//
//	view        name of the quality view to enact (required unless views=)
//	views       comma-separated view names to enact as ONE merged plan:
//	            shared prefixes run once per window, each view's
//	            decisions arrive as its own window records (the "view"
//	            field tells them apart)
//	window      window size (default 64)
//	slide       slide width (default = window, i.e. tumbling)
//	parallelism worker-pool degree (default 1)
//	timeout     per-processor timeout, a Go duration (optional)
//	partial     "drop" suppresses the final short window
//	on-error    "skip" reports failed windows and keeps streaming
//	            (default: the first failed window ends the stream)
//
// Event-time parameters (see Config; durations use Go syntax):
//
//	eventtime        evidence key carrying each item's event time
//	                 (QName or IRI, e.g. q:ObservedAt) — selects
//	                 event-time windowing
//	window-duration  event-time window width
//	slide-duration   event-time slide (default = window-duration)
//	session-gap      session-window gap (instead of window-duration)
//	max-out-of-order watermark lag bound (default 0: in-order feed)
//	allowed-lateness how long fired windows accept late re-emissions
//	late             late-data policy: "supersede" (default) or "drop"
//
// A view's <streaming> declaration supplies defaults for all windowing
// parameters; query parameters win.
func Handler(compile CompileFunc, opts ...HandlerOption) http.Handler {
	var ho handlerOptions
	for _, o := range opts {
		o(&ho)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "stream: POST an NDJSON item stream", http.StatusMethodNotAllowed)
			return
		}
		cfg, views, explicit, err := configFromQuery(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg.Journal = ho.journal
		view := strings.Join(views, ",")
		e, err := newEnactor(compile, views, cfg, explicit, &ho)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}

		// The endpoint reads the request body and writes the response
		// concurrently — without full duplex the server would block the
		// first header write until the body is drained, deadlocking
		// against a paused producer.
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			http.Error(w, "stream: connection does not support full-duplex streaming",
				http.StatusInternalServerError)
			return
		}
		// Join the caller's trace when a traceparent arrived (a forwarding
		// peer, or a client that wants to correlate); mint a fresh trace
		// otherwise — the enactment endpoint is where traces are born.
		ctx, _ := telemetry.Extract(r.Context(), r.Header)
		ctx, span := telemetry.StartSpan(ctx, "http:/stream/enact")
		span.SetAttr("view", view)
		defer span.End()

		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Accel-Buffering", "no") // proxies: don't buffer
		w.Header().Set(telemetry.TraceIDHeader, span.TraceID)
		flush := func() { _ = rc.Flush() }
		in := make(chan Item, cfg.Parallelism)
		results := make(chan WindowResult, cfg.Parallelism)

		readErr := make(chan error, 1)
		go func() { readErr <- ReadItems(r.Body, in) }()

		runErr := make(chan error, 1)
		go func() { runErr <- e.Run(ctx, in, results) }()

		writeFailed := WriteResults(w, results, flush) != nil
		enactErr := <-runErr // Run closed results, so it has returned
		// If the pipeline stopped early its ingest stage no longer drains
		// in; unblock the body reader so it can finish and report.
		go func() {
			for range in {
			}
		}()
		readError := <-readErr
		// Surface the first error as a trailing NDJSON error record —
		// headers are long gone.
		firstErr := enactErr
		if firstErr == nil {
			firstErr = readError
		}
		if firstErr != nil && !writeFailed {
			fmt.Fprintf(w, "{\"error\":%q}\n", firstErr.Error())
			flush()
		}
	})
}

// newEnactor builds the request's enactor over the merged plan of the
// requested views — one member for ?view=, several for ?views=a,b,c,
// whose shared prefixes enact once per window. The first view's <streaming>
// declaration supplies windowing defaults the query left unset, and the
// host's drift options are armed per request.
func newEnactor(compile CompileFunc, views []string, cfg Config, explicit map[string]bool, ho *handlerOptions) (*Enactor, error) {
	compiledSet := make([]*compiler.Compiled, 0, len(views))
	for _, v := range views {
		c, err := compile(v)
		if err != nil {
			return nil, fmt.Errorf("stream: compile view %q: %w", v, err)
		}
		compiledSet = append(compiledSet, c)
	}
	if r := compiledSet[0].Resolved; r != nil {
		cfg = applyStreamingDecl(cfg, r.Streaming, explicit)
	}
	if ho.drift != nil {
		d := *ho.drift // per-request copy: OnAlert binds this stream's view
		if ho.tightenAction != "" && len(views) == 1 {
			d.OnAlert = AutoTighten(compiledSet[0], ho.tightenAction, ho.tightenCond)
		}
		cfg.Drift = &d
	}
	mv, err := compiler.MergeViews(compiledSet...)
	if err != nil {
		return nil, fmt.Errorf("stream: merge views: %w", err)
	}
	return NewMulti(mv, cfg)
}

// applyStreamingDecl fills windowing fields the request left unset from
// the view's <streaming> declaration. Query parameters always win; a
// query that switches windowing family (count vs event time) ignores
// the declaration's other family entirely.
func applyStreamingDecl(cfg Config, s *qvlang.ResolvedStreaming, explicit map[string]bool) Config {
	if s == nil {
		return cfg
	}
	set := func(k string) bool { return explicit != nil && explicit[k] }
	// An explicit count-window request pins count windowing even when the
	// view declares event time; an explicit eventtime pins event time.
	declEvent := s.EventTime.Value() != ""
	if declEvent && !set("eventtime") && !set("window") && !set("slide") {
		cfg.EventTimeKey = evidence.Key(s.EventTime)
	}
	// window-duration and session-gap are mutually exclusive: an explicit
	// choice of either suppresses the declaration's other variant.
	if !set("window-duration") && !set("session-gap") {
		if s.Window > 0 {
			cfg.WindowDuration = s.Window
		}
		if s.SessionGap > 0 {
			cfg.SessionGap = s.SessionGap
		}
	}
	if !set("slide-duration") && s.Slide > 0 {
		cfg.SlideDuration = s.Slide
	}
	if !set("max-out-of-order") && s.MaxOutOfOrder > 0 {
		cfg.MaxOutOfOrder = s.MaxOutOfOrder
	}
	if !set("allowed-lateness") && s.AllowedLateness > 0 {
		cfg.AllowedLateness = s.AllowedLateness
	}
	if !set("late") && s.Late == "drop" {
		cfg.LatePolicy = LateDrop
	}
	if !set("window") && s.CountWindow > 0 {
		cfg.Window = s.CountWindow
	}
	if !set("slide") && s.CountSlide > 0 {
		cfg.Slide = s.CountSlide
	}
	return cfg
}

// configFromQuery parses the request's streaming configuration. The
// returned explicit set names the parameters the query actually carried,
// so view-declaration defaults know what not to override.
func configFromQuery(r *http.Request) (Config, []string, map[string]bool, error) {
	q := r.URL.Query()
	var views []string
	for _, v := range strings.Split(q.Get("views"), ",") {
		if v = strings.TrimSpace(v); v != "" {
			views = append(views, v)
		}
	}
	if len(views) == 0 {
		if view := q.Get("view"); view != "" {
			views = []string{view}
		}
	}
	if len(views) == 0 {
		return Config{}, nil, nil, fmt.Errorf("stream: missing ?view= (or ?views=a,b,c) parameter")
	}
	cfg := Config{Window: 64, Parallelism: 1}
	explicit := make(map[string]bool)
	var err error
	if s := q.Get("window"); s != "" {
		explicit["window"] = true
		if cfg.Window, err = strconv.Atoi(s); err != nil {
			return Config{}, nil, nil, fmt.Errorf("stream: bad window %q", s)
		}
	}
	if s := q.Get("slide"); s != "" {
		explicit["slide"] = true
		if cfg.Slide, err = strconv.Atoi(s); err != nil {
			return Config{}, nil, nil, fmt.Errorf("stream: bad slide %q", s)
		}
	}
	if s := q.Get("parallelism"); s != "" {
		if cfg.Parallelism, err = strconv.Atoi(s); err != nil {
			return Config{}, nil, nil, fmt.Errorf("stream: bad parallelism %q", s)
		}
	}
	if s := q.Get("timeout"); s != "" {
		if cfg.ProcessorTimeout, err = time.ParseDuration(s); err != nil {
			return Config{}, nil, nil, fmt.Errorf("stream: bad timeout %q", s)
		}
	}
	if s := q.Get("eventtime"); s != "" {
		explicit["eventtime"] = true
		cfg.EventTimeKey = evidence.Key(ontology.ExpandQName(s))
	}
	durParam := func(name string, dst *time.Duration) error {
		s := q.Get(name)
		if s == "" {
			return nil
		}
		explicit[name] = true
		d, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("stream: bad %s %q", name, s)
		}
		*dst = d
		return nil
	}
	for name, dst := range map[string]*time.Duration{
		"window-duration":  &cfg.WindowDuration,
		"slide-duration":   &cfg.SlideDuration,
		"session-gap":      &cfg.SessionGap,
		"max-out-of-order": &cfg.MaxOutOfOrder,
		"allowed-lateness": &cfg.AllowedLateness,
	} {
		if err := durParam(name, dst); err != nil {
			return Config{}, nil, nil, err
		}
	}
	switch s := q.Get("late"); s {
	case "":
	case "supersede":
		explicit["late"] = true
		cfg.LatePolicy = LateSupersede
	case "drop":
		explicit["late"] = true
		cfg.LatePolicy = LateDrop
	default:
		return Config{}, nil, nil, fmt.Errorf("stream: bad late policy %q (want supersede or drop)", s)
	}
	cfg.DropPartial = q.Get("partial") == "drop"
	cfg.SkipFailedWindows = q.Get("on-error") == "skip"
	return cfg, views, explicit, nil
}
