package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pyquery"
	"pyquery/internal/parser"
	"pyquery/internal/server"
)

// A span is one timed call into a layer. Spans of one request share Req;
// Parent names the span of the layer above, which the traced replay calls
// just before this one (layers are replayed one after another, not nested,
// so a layer's self time is its median minus the next inner median).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Stmt   string `json:"stmt"`
	Engine string `json:"engine,omitempty"`
	Stale  bool   `json:"stale,omitempty"`
	Start  int64  `json:"start_ns"` // since the replay began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (tr *tracer) record(req, parent int, name, stmt string, start, end time.Time) *span {
	tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Req: req, Name: name, Stmt: stmt,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds()})
	return &tr.spans[len(tr.spans)-1]
}

// durs returns the durations in microseconds of the spans named name that
// pass keep.
func (tr *tracer) durs(name string, keep func(*span) bool) []float64 {
	var out []float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// Layer span names, outermost first.
const (
	spanHTTP     = "net.http"
	spanHandler  = "protocol.handler"
	spanServer   = "server.exec"
	spanPrepared = "prepared.exec"
	spanWrite    = "query.write"
	spanRefresh  = "ivm.refresh"
)

// A traceRun is the state of one traced run: the service, the benchmark's
// own prepared copies of every statement over the service's database, and
// the recorded spans.
type traceRun struct {
	w      *workload
	rep    *report
	svc    *service
	syms   *parser.Symbols // mirrors the server's: the same CSVs loaded in the same order
	prs    *parser.Parser
	own    map[string]*pyquery.Prepared
	counts []int32
	tr     tracer
	fail   failures
	tries  int
	writes int                  // writes applied so far; an even count means the data is at its base
	deltas map[string][]float64 // added+removed rows of each refresh, per view
}

// runTrace is the traced run. It replays the workload's sequence from one
// goroutine through nested entry points (HTTP, Handler().ServeHTTP,
// Server.Exec, Prepared.Exec), times the other layers through their public
// entry points, runs a short untraced concurrent phase for the service and
// runtime counters, and reports per-layer metrics.
func runTrace(w *workload, seconds float64, rep *report, outDir string) (attempted, failed int, err error) {
	tw := &traceRun{w: w, rep: rep, own: map[string]*pyquery.Prepared{}, deltas: map[string][]float64{}}
	ref, err := newReference(w)
	if err != nil {
		return 0, 0, err
	}
	if tw.counts, err = ref.seqCounts(w); err != nil {
		return 0, 0, err
	}
	ref = nil
	layer := map[string]float64{}

	layer["parser.load_ms"] = tw.loadLayer()
	layer["parser.parse_us"] = tw.parseLayer()

	if tw.svc, err = tw.setup(); err != nil {
		return 0, 0, err
	}
	defer tw.svc.close()
	for _, info := range tw.svc.srv.Stmts() {
		rep.line("input stmt=%s engine=%q query=%q", info.Name, info.Engine, info.Query)
	}
	if err := tw.prepareOwn(layer); err != nil {
		return 0, 0, err
	}
	layer["relation.resident_mb"] = tw.residentMB()

	budget := time.Duration(seconds * float64(time.Second))
	n := tw.replayCount(budget * 4 / 10)
	untraced := tw.untracedReplay(n)
	tw.tr.t0 = time.Now()
	tw.tracedReplay(n)
	if tw.writes%2 == 1 {
		tw.write(map[string]bool{})
	}
	tw.allocPass(layer, min(n, 64))
	if !w.Writer {
		tw.mutationPass()
	}
	tw.viewPass()
	layer["parallel.speedup"] = tw.speedup()
	tw.concurrentPhase(layer, budget*2/10)

	tw.summarize(layer, untraced)
	if err := tw.writeFiles(outDir, layer); err != nil {
		return 0, 0, err
	}
	rep.note("fail_frac", "ratio", float64(tw.fail.n)/float64(max(1, tw.tries)), tw.tries)
	if tw.fail.n > 0 {
		rep.line("failures: %s", tw.fail.String())
	}
	return tw.tries, tw.fail.n, nil
}

func (tw *traceRun) failf(format string, args ...any) { tw.fail.add(format, args...) }

// loadLayer times parser.LoadCSV of every relation into a fresh database.
func (tw *traceRun) loadLayer() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		db, syms := pyquery.NewDB(), parser.NewSymbols()
		t := time.Now()
		for _, rel := range tw.w.Rels {
			tw.tries++
			if err := parser.LoadCSV(db, rel.Name, bytes.NewReader(rel.CSV), syms); err != nil {
				tw.failf("load %s: %v", rel.Name, err)
			}
		}
		ms = append(ms, float64(time.Since(t))/1e6)
	}
	return median(ms)
}

// parseLayer times ParseCQ of every statement.
func (tw *traceRun) parseLayer() float64 {
	prs := parser.New()
	var us []float64
	for i := 0; i < 50; i++ {
		for _, st := range tw.all() {
			t := time.Now()
			if _, err := prs.ParseCQ(st.Src); err != nil {
				tw.failf("parse %s: %v", st.Name, err)
			}
			us = append(us, float64(time.Since(t))/1e3)
		}
	}
	return median(us)
}

func (tw *traceRun) all() []stmt { return append(append([]stmt(nil), tw.w.Reads...), tw.w.Views...) }

// setup loads the data over HTTP and registers every statement, views
// included, then materializes the views.
func (tw *traceRun) setup() (*service, error) {
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	c := svc.client()
	tw.syms = parser.NewSymbols()
	tw.prs = parser.NewWithSymbols(tw.syms)
	for _, rel := range tw.w.Rels {
		if err := c.do("POST", "/rel/"+rel.Name, rel.CSV); err != nil {
			svc.close()
			return nil, err
		}
		// Loading the same CSV into a fresh table interns the same symbols
		// in the same order, so tw.syms maps names to the server's values.
		if err := parser.LoadCSV(pyquery.NewDB(), rel.Name, bytes.NewReader(rel.CSV), tw.syms); err != nil {
			svc.close()
			return nil, err
		}
	}
	for _, st := range tw.all() {
		if err := c.register(st); err != nil {
			svc.close()
			return nil, err
		}
	}
	for _, v := range tw.w.Views {
		if _, _, err := c.refresh(v.Name); err != nil {
			svc.close()
			return nil, err
		}
	}
	return svc, nil
}

// prepareOwn compiles the benchmark's own copy of every statement over the
// service's database, timing pyquery.Prepare, and compares PlanDB's
// estimated answer size with the actual one.
func (tw *traceRun) prepareOwn(layer map[string]float64) error {
	db := tw.svc.srv.DB()
	var prepMS, ratios []float64
	for _, st := range tw.all() {
		q, err := tw.prs.ParseCQ(st.Src)
		if err != nil {
			return err
		}
		for i := 0; i < 5; i++ {
			t := time.Now()
			p, err := pyquery.Prepare(q, db, pyquery.Options{})
			if err != nil {
				return fmt.Errorf("prepare %s: %w", st.Name, err)
			}
			prepMS = append(prepMS, float64(time.Since(t))/1e6)
			tw.own[st.Name] = p
		}
		keys := []string{""}
		if st.Point {
			keys = tw.keysOf(st, 8)
		}
		for _, key := range keys {
			bq, args := q, tw.args(st, key)
			if st.Point {
				if bq, err = q.BindParams(map[string]pyquery.Value{"src": args[0].Value}); err != nil {
					return err
				}
			}
			rpt, err := pyquery.PlanDB(bq, db)
			if err != nil {
				return fmt.Errorf("plan %s: %w", st.Name, err)
			}
			res, err := tw.own[st.Name].Exec(context.Background(), args...)
			if err != nil {
				return fmt.Errorf("exec %s: %w", st.Name, err)
			}
			if res.Len() > 0 {
				ratios = append(ratios, rpt.EstRows/float64(res.Len()))
			}
		}
	}
	layer["plan.prepare_ms"] = median(prepMS)
	layer["plan.est_rows_ratio"] = median(ratios)
	return nil
}

// keysOf returns the first k distinct keys the sequence binds for st.
func (tw *traceRun) keysOf(st stmt, k int) []string {
	var keys []string
	seen := map[string]bool{}
	for _, rq := range tw.w.Seq {
		if tw.w.Reads[rq.Stmt].Name == st.Name && !seen[rq.Key] && len(keys) < k {
			seen[rq.Key] = true
			keys = append(keys, rq.Key)
		}
	}
	return keys
}

func (tw *traceRun) args(st stmt, key string) []pyquery.Arg {
	if !st.Point {
		return nil
	}
	return []pyquery.Arg{pyquery.Bind("src", tw.syms.Value(key))}
}

func (tw *traceRun) residentMB() float64 {
	db := tw.svc.srv.DB()
	var b int64
	for _, name := range db.Names() {
		r, _ := db.Rel(name)
		b += r.Bytes()
	}
	return float64(b) / 1e6
}

// replayCount sizes the replay: as many sequence requests as one traced
// pass of four layers fits in the budget, at least 16.
func (tw *traceRun) replayCount(budget time.Duration) int {
	c := tw.svc.client()
	t := time.Now()
	n := 0
	for time.Since(t) < budget/4 && n < len(tw.w.Seq) {
		rq := tw.w.Seq[n]
		c.execN(tw.w.Reads[rq.Stmt].Name, rq.Body)
		n++
	}
	return max(16, n)
}

// untracedReplay sends the first n requests over HTTP from one goroutine
// with no spans recorded: the baseline for the tracing overhead. It returns
// the latencies in microseconds by statement.
func (tw *traceRun) untracedReplay(n int) map[string][]float64 {
	c := tw.svc.client()
	us := map[string][]float64{}
	for i := 0; i < n; i++ {
		rq := tw.w.Seq[i]
		name := tw.w.Reads[rq.Stmt].Name
		t := time.Now()
		_, err := c.execN(name, rq.Body)
		us[name] = append(us[name], float64(time.Since(t))/1e3)
		if err != nil {
			tw.failf("untraced %v", err)
		}
	}
	return us
}

// tracedReplay replays the first n requests through the four read layers.
// On rw a write (alternately insert and delete, each followed by a refresh
// of both views) lands every writeEvery reads, so some reads are the first
// after a write and replan.
func (tw *traceRun) tracedReplay(n int) {
	const writeEvery = 12
	c := tw.svc.client()
	srv := tw.svc.srv
	h := srv.Handler()
	stale := map[string]bool{}
	for i := 0; i < n; i++ {
		if tw.w.Writer && i > 0 && i%writeEvery == 0 {
			tw.write(stale)
		}
		rq := tw.w.Seq[i]
		st := tw.w.Reads[rq.Stmt]
		want := int(tw.counts[i])
		tw.tries++

		t := time.Now()
		got, err := c.execN(st.Name, rq.Body)
		top := tw.tr.record(i, 0, spanHTTP, st.Name, t, time.Now())
		tw.check("http", st, rq.Key, got, want, err)
		parent := top.ID

		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/stmt/"+st.Name+"/exec", bytes.NewReader(rq.Body))
		t = time.Now()
		h.ServeHTTP(rec, hr)
		parent = tw.tr.record(i, parent, spanHandler, st.Name, t, time.Now()).ID
		got, err = tailInt(rec.Body.Bytes(), `,"n":`)
		tw.check("handler", st, rq.Key, got, want, err)

		params := map[string]pyquery.Value{}
		args := tw.args(st, rq.Key)
		for _, a := range args {
			params[a.Name] = a.Value
		}
		t = time.Now()
		res, _, err := srv.Exec(context.Background(), st.Name, params, server.ExecOpts{})
		parent = tw.tr.record(i, parent, spanServer, st.Name, t, time.Now()).ID
		tw.check("server", st, rq.Key, lenOf(res), want, err)

		tw.execOwn(i, parent, st, args, want, stale)
	}
}

// execOwn runs the benchmark's own prepared copy and records its span;
// the first execution after a write is marked stale.
func (tw *traceRun) execOwn(reqID, parent int, st stmt, args []pyquery.Arg, want int, stale map[string]bool) {
	p := tw.own[st.Name]
	t := time.Now()
	res, err := p.Exec(context.Background(), args...)
	s := tw.tr.record(reqID, parent, spanPrepared, st.Name, t, time.Now())
	s.Engine = engineLayer(p.Engine())
	s.Stale = stale[st.Name]
	stale[st.Name] = false
	if want >= 0 {
		tw.check("prepared", st, "", lenOf(res), want, err)
	} else if err != nil {
		tw.failf("prepared %s: %v", st.Name, err)
	}
}

func lenOf(r *pyquery.Relation) int {
	if r == nil {
		return -1
	}
	return r.Len()
}

func (tw *traceRun) check(layer string, st stmt, key string, got, want int, err error) {
	switch {
	case err != nil:
		tw.failf("%s %s: %v", layer, st.Name, err)
	case got != want:
		tw.failf("%s %s key %q: n=%d, want %d", layer, st.Name, key, got, want)
	}
}

// write applies the next write through Server.Insert or Delete: inserts
// and deletes alternate over the same batch, so the data returns to its
// base after each pair. Both views are then refreshed through
// Server.Refresh.
func (tw *traceRun) write(stale map[string]bool) {
	srv := tw.svc.srv
	k := tw.writes
	tw.writes++
	rows := tw.batchRows(k / 2)
	tw.tries++
	t := time.Now()
	var n int
	var err error
	if k%2 == 0 {
		n, err = srv.Insert("E", rows)
	} else {
		n, err = srv.Delete("E", rows)
	}
	tw.tr.record(-1, 0, spanWrite, "E", t, time.Now())
	if err != nil || n != batchSize {
		tw.failf("write %d: changed=%d err=%v", k, n, err)
	}
	for _, st := range tw.all() {
		stale[st.Name] = true
	}
	for _, v := range tw.w.Views {
		tw.tries++
		t := time.Now()
		added, removed, err := srv.Refresh(context.Background(), v.Name)
		tw.tr.record(-1, 0, spanRefresh, v.Name, t, time.Now())
		if err != nil {
			tw.failf("refresh %s: %v", v.Name, err)
			continue
		}
		tw.deltas[v.Name] = append(tw.deltas[v.Name], float64(added.Len()+removed.Len()))
	}
}

func (tw *traceRun) batchRows(b int) [][]pyquery.Value {
	var rows [][]pyquery.Value
	for _, e := range tw.w.Batches[b%len(tw.w.Batches)] {
		rows = append(rows, []pyquery.Value{tw.syms.Value(e[0]), tw.syms.Value(e[1])})
	}
	return rows
}

// mutationPass mirrors the untraced write probe on workloads without a
// writer: writes with view refreshes, each followed by one execution of
// every read statement's own prepared copy, which replans.
func (tw *traceRun) mutationPass() {
	const writes = 12
	stale := map[string]bool{}
	for k := 0; k < writes; k++ {
		tw.write(stale)
		for _, st := range tw.w.Reads {
			key := ""
			if st.Point {
				key = tw.keysOf(st, 1)[0]
			}
			tw.tries++
			tw.execOwn(-1, 0, st, tw.args(st, key), -1, stale)
		}
	}
}

// viewPass executes each view's own prepared copy a few times, so every
// workload reports the views' engines.
func (tw *traceRun) viewPass() {
	for _, v := range tw.w.Views {
		for i := 0; i < 3; i++ {
			tw.tries++
			tw.execOwn(-1, 0, v, nil, -1, map[string]bool{})
		}
	}
}

// speedup is the median over scan statements (the views, and analytic's
// reads) of Prepared.Exec time at Parallelism 1 over the time at the
// default.
func (tw *traceRun) speedup() float64 {
	db := tw.svc.srv.DB()
	var ratios []float64
	for _, st := range tw.all() {
		if st.Point {
			continue
		}
		q, err := tw.prs.ParseCQ(st.Src)
		if err != nil {
			tw.failf("parse %s: %v", st.Name, err)
			continue
		}
		serial, err := pyquery.Prepare(q, db, pyquery.Options{Parallelism: 1})
		if err != nil {
			tw.failf("prepare %s: %v", st.Name, err)
			continue
		}
		var t1, tn []float64
		for i := 0; i < 3; i++ {
			for _, side := range []struct {
				p   *pyquery.Prepared
				out *[]float64
			}{{serial, &t1}, {tw.own[st.Name], &tn}} {
				tw.tries++
				t := time.Now()
				if _, err := side.p.Exec(context.Background()); err != nil {
					tw.failf("exec %s: %v", st.Name, err)
				}
				*side.out = append(*side.out, float64(time.Since(t)))
			}
		}
		ratios = append(ratios, median(t1)/median(tn))
	}
	return median(ratios)
}

// allocPass measures heap bytes allocated per request by the handler and by
// Server.Exec over the first n requests, outside the timed spans.
func (tw *traceRun) allocPass(layer map[string]float64, n int) {
	srv := tw.svc.srv
	h := srv.Handler()
	var kb, bytesOut []float64
	var ms runtime.MemStats
	alloc := func() uint64 { runtime.ReadMemStats(&ms); return ms.TotalAlloc }
	for i := 0; i < n; i++ {
		rq := tw.w.Seq[i]
		st := tw.w.Reads[rq.Stmt]
		params := map[string]pyquery.Value{}
		for _, a := range tw.args(st, rq.Key) {
			params[a.Name] = a.Value
		}
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/stmt/"+st.Name+"/exec", bytes.NewReader(rq.Body))
		a0 := alloc()
		h.ServeHTTP(rec, hr)
		a1 := alloc()
		_, _, err := srv.Exec(context.Background(), st.Name, params, server.ExecOpts{})
		a2 := alloc()
		tw.tries++
		if err != nil {
			tw.failf("alloc pass %s: %v", st.Name, err)
		}
		kb = append(kb, (float64(a1-a0)-float64(a2-a1))/1024)
		bytesOut = append(bytesOut, float64(rec.Body.Len()))
	}
	layer["protocol.alloc_kb"] = median(kb)
	layer["protocol.resp_bytes"] = median(bytesOut)
}

// concurrentPhase runs the untraced load for d and reads the service and
// runtime counters: batching, queue depth, overloads, allocation and GC.
func (tw *traceRun) concurrentPhase(layer map[string]float64, d time.Duration) {
	ref, err := newReference(tw.w)
	if err != nil {
		tw.failf("reference: %v", err)
		return
	}
	counts, err := ref.seqCounts(tw.w)
	if err != nil {
		tw.failf("reference: %v", err)
		return
	}
	lr := newLoadRun(tw.w, tw.rep)
	lr.svc, lr.counts = tw.svc, counts
	srv := tw.svc.srv
	before := srv.Stats()

	var depth int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				depth = max(depth, srv.Stats().QueueDepth)
			}
		}
	}()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	elapsed := lr.drive(d, true)
	runtime.ReadMemStats(&m1)
	close(stop)
	wg.Wait()

	after := srv.Stats()
	var execs, batched int64
	for name, s := range after.Stmts {
		execs += s.Execs - before.Stmts[name].Execs
		batched += s.Batched - before.Stmts[name].Batched
	}
	reqs := max(1, lr.attempted.Load())
	tw.tries += int(lr.attempted.Load())
	if lr.fail.n > 0 {
		tw.failf("concurrent phase: %d failures: %s", lr.fail.n, lr.fail.String())
	}
	layer["server.batched_frac"] = float64(batched) / float64(max(1, execs))
	layer["server.queue_depth_max"] = float64(depth)
	layer["server.overloads"] = float64(after.Overloads - before.Overloads)
	layer["runtime.alloc_kb_per_req"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(reqs)
	gcs := m1.NumGC - m0.NumGC
	layer["runtime.gc_per_s"] = float64(gcs) / elapsed.Seconds()
	layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / float64(max(1, gcs))
	tw.rep.line("concurrent phase: %d requests in %.2fs, %d execs (%d batched)", reqs, elapsed.Seconds(), execs, batched)
}

// engineLayer names the package behind an engine, the per-layer prefix.
func engineLayer(e pyquery.Engine) string {
	switch e {
	case pyquery.EngineGeneric:
		return "eval"
	case pyquery.EngineYannakakis:
		return "yannakakis"
	case pyquery.EngineDecomp:
		return "decomp"
	case pyquery.EngineWCOJ:
		return "wcoj"
	case pyquery.EngineComparisons:
		return "comparisons"
	case pyquery.EngineColorCoding:
		return "colorcoding"
	}
	return "engine"
}

// perStmt is the mean over the given statements (those with any such
// span) of each one's median duration of the spans named name that pass
// keep. Statements differ in
// cost by orders of magnitude, so a median pooled over them would jump
// from one statement to another between runs.
func (tw *traceRun) perStmt(stmts []stmt, name string, keep func(*span) bool) float64 {
	sum, n := 0.0, 0
	for _, st := range stmts {
		us := tw.tr.durs(name, func(s *span) bool { return s.Stmt == st.Name && (keep == nil || keep(s)) })
		if len(us) > 0 {
			sum += median(us)
			n++
		}
	}
	return sum / float64(max(1, n))
}

// summarize turns the spans into per-layer self times and counts. A
// layer's self time is its per-statement median minus the next inner
// layer's, averaged over the read statements.
func (tw *traceRun) summarize(layer map[string]float64, untraced map[string][]float64) {
	tr := &tw.tr
	reads := tw.w.Reads
	fresh := func(s *span) bool { return !s.Stale }
	read := func(s *span) bool { return s.Req >= 0 && !s.Stale }
	stale := func(s *span) bool { return s.Stale }
	httpUS := tw.perStmt(reads, spanHTTP, nil)
	handlerUS := tw.perStmt(reads, spanHandler, nil)
	serverUS := tw.perStmt(reads, spanServer, nil)
	preparedUS := tw.perStmt(reads, spanPrepared, read)
	layer["net.self_us"] = httpUS - handlerUS
	layer["protocol.self_us"] = handlerUS - serverUS
	layer["server.self_us"] = serverUS - preparedUS
	layer["prepared.exec_us"] = preparedUS
	layer["prepared.stale_exec_us"] = tw.perStmt(reads, spanPrepared, stale)
	all := tr.durs(spanPrepared, nil)
	layer["prepared.stale_frac"] = float64(len(all)-len(tr.durs(spanPrepared, fresh))) / float64(max(1, len(all)))
	// Per-view medians, summed: one refresh of each view. The two views'
	// deltas differ by orders of magnitude, so a pooled median would jump.
	for _, v := range tw.w.Views {
		layer["ivm.refresh_us"] += median(tr.durs(spanRefresh, func(s *span) bool { return s.Stmt == v.Name }))
		layer["ivm.delta_rows"] += median(tw.deltas[v.Name])
	}
	layer["query.write_us"] = median(tr.durs(spanWrite, nil))
	untracedUS := 0.0
	for _, st := range reads {
		untracedUS += median(untraced[st.Name]) / float64(len(reads))
	}
	layer["trace.overhead_us"] = httpUS - untracedUS

	// Engine layers: each statement's fresh Prepared.Exec median and answer
	// size, averaged over the statements routed to that engine.
	byEngine := map[string][]stmt{}
	for _, st := range tw.all() {
		e := engineLayer(tw.own[st.Name].Engine())
		byEngine[e] = append(byEngine[e], st)
	}
	for e, stmts := range byEngine {
		layer[e+".exec_us"] = tw.perStmt(stmts, spanPrepared, fresh)
		rows := 0.0
		for _, st := range stmts {
			key := ""
			if st.Point {
				key = tw.keysOf(st, 1)[0]
			}
			res, err := tw.own[st.Name].Exec(context.Background(), tw.args(st, key)...)
			if err != nil {
				tw.failf("exec %s: %v", st.Name, err)
				continue
			}
			rows += float64(res.Len()) / float64(len(stmts))
		}
		layer[e+".rows"] = rows
	}
	tw.rep.line("replay: %d spans, untraced http p50 %.1fus (mean over statements)", len(tr.spans), untracedUS)
}

// perLayer is the fixed set of per-layer metrics of the result line, with
// units; every workload reports each. Engine metrics beyond eval and
// yannakakis are written to the layer file where a statement routes there.
var perLayer = []struct{ name, unit string }{
	{"net.self_us", "us"}, {"protocol.self_us", "us"}, {"protocol.resp_bytes", "bytes"},
	{"protocol.alloc_kb", "KiB"}, {"server.self_us", "us"}, {"server.batched_frac", "ratio"},
	{"server.queue_depth_max", "count"}, {"server.overloads", "count"},
	{"prepared.exec_us", "us"}, {"prepared.stale_exec_us", "us"}, {"prepared.stale_frac", "ratio"},
	{"eval.exec_us", "us"}, {"eval.rows", "rows"}, {"yannakakis.exec_us", "us"}, {"yannakakis.rows", "rows"},
	{"parallel.speedup", "x"}, {"plan.prepare_ms", "ms"}, {"plan.est_rows_ratio", "ratio"},
	{"parser.parse_us", "us"}, {"parser.load_ms", "ms"}, {"ivm.refresh_us", "us"}, {"ivm.delta_rows", "rows"},
	{"query.write_us", "us"}, {"runtime.alloc_kb_per_req", "KiB"}, {"runtime.gc_per_s", "1/s"},
	{"runtime.gc_pause_ms", "ms"}, {"relation.resident_mb", "MB"}, {"trace.overhead_us", "us"},
}

// writeFiles reports the per-layer metrics and writes the spans (one JSON
// object a line) and the full layer table under outDir.
func (tw *traceRun) writeFiles(outDir string, layer map[string]float64) error {
	for _, m := range perLayer {
		tw.rep.add(m.name, m.unit, layer[m.name], 1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", tw.w.Name, tw.w.Seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range tw.tr.spans {
		if err := enc.Encode(&tw.tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	names := make([]string, 0, len(layer))
	for k := range layer {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%-26s %14.4f\n", k, layer[k])
	}
	tw.rep.line("spans: %s.spans.jsonl, layers: %s.layers.txt", base, base)
	return os.WriteFile(base+".layers.txt", []byte(b.String()), 0o644)
}
