package main

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	initialSetups   = 3                      // fresh setups before the window; one more follows each slice
	slices          = 5                      // the timed window is measured in this many slices
	warmup          = 500 * time.Millisecond // untimed load before the window
	registerSamples = 60                     // PUT /stmt samples after the window
	probeCycles     = 60                     // write-probe cycles after the window (lookup, analytic)
	gateKeys        = 16                     // keys per point statement in the set-equality gate
	writerPeriod    = 90 * time.Millisecond  // rw writer cycle period
	maxSamples      = 1 << 17                // latency samples kept per read statement
)

// A recorder holds one class's latencies in milliseconds. Its buffer is
// allocated up front so the live heap does not depend on throughput.
type recorder struct {
	mu sync.Mutex
	ms []float64
}

func newRecorder(n int) *recorder { return &recorder{ms: make([]float64, 0, n)} }

func (r *recorder) add(d time.Duration) {
	r.mu.Lock()
	if len(r.ms) < cap(r.ms) {
		r.ms = append(r.ms, float64(d)/1e6)
	}
	r.mu.Unlock()
}

// A loadRun is the state of one untraced run.
type loadRun struct {
	w      *workload
	rep    *report
	counts []int32 // expected "n" of each sequence request
	svc    *service

	mu   sync.Mutex // guards fail
	fail failures

	attempted atomic.Int64
	ok        atomic.Int64 // successful requests inside the timed window
	recording atomic.Bool

	// classes holds the latencies of reads ("read <stmt>"), writes
	// ("insert", "delete"), view refreshes ("refresh <view>") and
	// registrations ("register <stmt>").
	// Its keys are fixed before any goroutine starts.
	classes         map[string]*recorder
	firstAfterWrite atomic.Int64 // reads that were the first of their statement after a write
	readsInWindow   atomic.Int64

	viewInit              map[string]int // rows of each view's first refresh
	viewAdded, viewRemove map[string]int // summed refresh deltas
	maxLag                time.Duration  // writer lateness
}

func (lr *loadRun) failf(format string, args ...any) {
	lr.mu.Lock()
	lr.fail.add(format, args...)
	lr.mu.Unlock()
}

// runLoad is the untraced run. The timed window is cut into slices; after
// each slice the service is idle while the probes run (a share of the
// PUT /stmt samples, a share of the write cycles on workloads without a
// writer, and one extra fresh setup), so every metric is sampled across
// the whole run rather than in one stretch a host hiccup could cover.
func runLoad(w *workload, seconds float64, rep *report) (attempted, failed int, err error) {
	lr := newLoadRun(w, rep)

	// Reference counts for every request come first, so that no reference
	// state exists while the window runs.
	ref, err := newReference(w)
	if err != nil {
		return 0, 0, err
	}
	if lr.counts, err = ref.seqCounts(w); err != nil {
		return 0, 0, err
	}

	var setups []float64
	for i := 0; i < initialSetups; i++ {
		if lr.svc != nil {
			if err := lr.svc.close(); err != nil {
				return 0, 0, err
			}
		}
		d, svc, err := lr.timedSetup()
		if err != nil {
			return 0, 0, err
		}
		lr.svc = svc
		setups = append(setups, d)
	}
	defer lr.svc.close()
	lr.reportInputs()

	lr.gate(ref, "pre-window")
	ref = nil

	lr.drive(warmup, false)
	var elapsed time.Duration
	var live uint64
	slice := time.Duration(seconds * float64(time.Second) / slices)
	for s := 0; s < slices; s++ {
		elapsed += lr.drive(slice, true)
		if s == 0 {
			live = liveHeap()
		}
		if !w.Writer {
			lr.writeProbe(s)
		}
		lr.registerProbe(registerSamples / slices)
		d, svc, err := lr.timedSetup()
		if err != nil {
			return 0, 0, err
		}
		if err := svc.close(); err != nil {
			return 0, 0, err
		}
		setups = append(setups, d)
	}

	rep.add("setup_s", "s", median(setups), len(setups))
	rep.add("rps", "1/s", float64(lr.ok.Load())/elapsed.Seconds(), int(lr.ok.Load()))
	lr.addReads()
	var views, reads []string
	for _, v := range w.Views {
		views = append(views, "refresh "+v.Name)
	}
	for _, st := range w.Reads {
		reads = append(reads, "register "+st.Name)
	}
	lr.addSum("write_ms", []string{"insert", "delete"})
	lr.addSum("refresh_ms", views)
	lr.addSum("register_ms", reads)
	rep.add("live_mb", "MB", float64(live)/1e6, 1)
	if w.Writer {
		rep.note("first_read_after_write_frac", "ratio",
			float64(lr.firstAfterWrite.Load())/float64(max(1, lr.readsInWindow.Load())), int(lr.readsInWindow.Load()))
		rep.note("writer_max_lag_ms", "ms", float64(lr.maxLag)/1e6, len(lr.classes["insert"].ms))
	}

	if ref, err = newReference(w); err != nil {
		return 0, 0, err
	}
	lr.gate(ref, "post-window")
	lr.viewGate(ref)

	attempted = int(lr.attempted.Load())
	rep.note("fail_frac", "ratio", float64(lr.fail.n)/float64(max(1, attempted)), attempted)
	if lr.fail.n > 0 {
		rep.line("failures: %s", lr.fail.String())
	}
	return attempted, lr.fail.n, nil
}

func newLoadRun(w *workload, rep *report) *loadRun {
	lr := &loadRun{w: w, rep: rep, classes: map[string]*recorder{},
		viewInit: map[string]int{}, viewAdded: map[string]int{}, viewRemove: map[string]int{}}
	for _, st := range w.Reads {
		lr.classes["read "+st.Name] = newRecorder(maxSamples)
	}
	names := []string{"insert", "delete"}
	for _, v := range w.Views {
		names = append(names, "refresh "+v.Name)
	}
	for _, st := range w.Reads {
		names = append(names, "register "+st.Name)
	}
	for _, n := range names {
		lr.classes[n] = newRecorder(1 << 12)
	}
	return lr
}

// addReads reports read_p50_ms and read_p95_ms as the mean over the read
// statements of each statement's own quantile, and prints every
// statement's p50, p95 and p99 with its sample count. Statements differ in
// cost by up to an order of magnitude, and on rw each one's first read
// after a write replans; a quantile of the pooled samples would sit on a
// boundary between such modes and jump between runs.
func (lr *loadRun) addReads() {
	var p50, p95 float64
	n := 0
	for _, st := range lr.w.Reads {
		ms := lr.classes["read "+st.Name].ms
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p95", 0.95}, {"p99", 0.99}} {
			lr.rep.note("read."+st.Name+"_"+q.name+"_ms", "ms", quantile(ms, q.q), len(ms))
		}
		p50 += median(ms)
		p95 += quantile(ms, 0.95)
		n += len(ms)
	}
	k := float64(len(lr.w.Reads))
	lr.rep.add("read_p50_ms", "ms", p50/k, n)
	lr.rep.add("read_p95_ms", "ms", p95/k, n)
}

// addSum reports the sum of the named classes' median latencies — the
// cost of one of each — and prints each class's median with its count.
// Summing per-class medians keeps a metric off the boundary between two
// classes of very different cost, where a pooled median would jump.
func (lr *loadRun) addSum(name string, classes []string) {
	sum, n := 0.0, 0
	for _, c := range classes {
		ms := lr.classes[c].ms
		lr.rep.note(strings.ReplaceAll(c, " ", ".")+"_p50_ms", "ms", median(ms), len(ms))
		sum += median(ms)
		n += len(ms)
	}
	lr.rep.add(name, "ms", sum, n)
}

// liveHeap returns the live heap after forced GCs. The second GC drops
// what the first only moved to sync.Pool victim caches, so pooled buffers
// that happen to be parked at that moment do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedSetup runs one fresh setup after a forced GC, so each starts from
// the same heap state, and returns its duration in seconds.
func (lr *loadRun) timedSetup() (float64, *service, error) {
	runtime.GC()
	t0 := time.Now()
	svc, err := lr.setup()
	return time.Since(t0).Seconds(), svc, err
}

// setup is one fresh service: load the CSVs, register the statements and,
// on rw, materialize the views with their first refresh.
func (lr *loadRun) setup() (*service, error) {
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	c := svc.client()
	for _, rel := range lr.w.Rels {
		if err := c.do(http.MethodPost, "/rel/"+rel.Name, rel.CSV); err != nil {
			svc.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	for _, st := range lr.w.setupStmts() {
		if err := c.register(st); err != nil {
			svc.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	if lr.w.Writer {
		for _, v := range lr.w.Views {
			added, _, err := c.refresh(v.Name)
			if err != nil {
				svc.close()
				return nil, fmt.Errorf("setup: %w", err)
			}
			lr.viewInit[v.Name] = added
		}
	}
	return svc, nil
}

func (lr *loadRun) reportInputs() {
	w := lr.w
	keys := "integer"
	if w.StringKeys {
		keys = "string"
	}
	for _, rel := range w.Rels {
		lr.rep.line("input relation=%s rows=%d csv_bytes=%d", rel.Name, rel.Rows, len(rel.CSV))
	}
	lr.rep.line("input nodes=%d keys=%s sequence=%d batches=%dx%d", w.Nodes, keys, len(w.Seq), len(w.Batches), batchSize)
	for _, info := range lr.svc.srv.Stmts() {
		lr.rep.line("input stmt=%s engine=%q query=%q", info.Name, info.Engine, info.Query)
	}
}

// drive runs the workload's load for d: two closed-loop readers, or on rw
// one reader beside the paced writer. It returns the measured duration.
func (lr *loadRun) drive(d time.Duration, record bool) time.Duration {
	lr.recording.Store(record)
	var writesDone atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	readers := 2
	if lr.w.Writer {
		readers = 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.writer(start, deadline, &writesDone)
		}()
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			lr.reader(off, deadline, &writesDone)
		}(i * len(lr.w.Seq) / readers)
	}
	wg.Wait()
	return time.Since(start)
}

func (lr *loadRun) reader(off int, deadline time.Time, writesDone *atomic.Int64) {
	c := lr.svc.client()
	seen := make([]int64, len(lr.w.Reads)) // writes completed at each statement's last read
	for i := off; time.Now().Before(deadline); i++ {
		k := i % len(lr.w.Seq)
		rq := lr.w.Seq[k]
		st := lr.w.Reads[rq.Stmt]
		wn := writesDone.Load()
		lr.attempted.Add(1)
		t := time.Now()
		n, err := c.execN(st.Name, rq.Body)
		d := time.Since(t)
		switch {
		case err != nil:
			lr.failf("read %s: %v", st.Name, err)
			continue
		case n != int(lr.counts[k]):
			lr.failf("read %s key %q: n=%d, want %d", st.Name, rq.Key, n, lr.counts[k])
			continue
		}
		if !lr.recording.Load() {
			seen[rq.Stmt] = wn
			continue
		}
		lr.ok.Add(1)
		lr.readsInWindow.Add(1)
		if wn > seen[rq.Stmt] {
			lr.firstAfterWrite.Add(1)
		}
		seen[rq.Stmt] = wn
		lr.classes["read "+st.Name].add(d)
	}
}

// writer runs one cycle per writerPeriod, each due at a fixed offset from
// start: insert a batch and refresh both views, then half a period later
// delete the batch and refresh again. Each write is timed from when it was
// due. A cycle that starts before the deadline always finishes, so the
// data is back at its base when the writer returns.
func (lr *loadRun) writer(start, deadline time.Time, writesDone *atomic.Int64) {
	c := lr.svc.client()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * writerPeriod)
		if !due.Before(deadline) {
			return
		}
		lr.write(c, k, "insert", due, writesDone)
		lr.write(c, k, "delete", due.Add(writerPeriod/2), writesDone)
	}
}

// write sends one insert or delete of batch k, due at due, then refreshes
// both views. Refreshes are timed from their own send.
func (lr *loadRun) write(c *client, k int, op string, due time.Time, writesDone *atomic.Int64) {
	sleepUntil(due)
	if lag := time.Since(due); lr.recording.Load() && lag > lr.maxLag {
		lr.maxLag = lag
	}
	lr.attempted.Add(1)
	n, err := c.mutate(op, lr.w.batchBody(k))
	d := time.Since(due)
	if writesDone != nil {
		writesDone.Add(1)
	}
	switch {
	case err != nil:
		lr.failf("%s: %v", op, err)
	case n != batchSize:
		lr.failf("%s batch %d: changed=%d, want %d", op, k, n, batchSize)
	default:
		lr.count(op, d)
	}
	for _, v := range lr.w.Views {
		lr.attempted.Add(1)
		t := time.Now()
		added, removed, err := c.refresh(v.Name)
		d := time.Since(t)
		switch {
		case err != nil:
			lr.failf("refresh %s: %v", v.Name, err)
		case op == "insert" && removed != 0, op == "delete" && added != 0:
			lr.failf("refresh %s after %s: added=%d removed=%d", v.Name, op, added, removed)
		default:
			lr.mu.Lock()
			lr.viewAdded[v.Name] += added
			lr.viewRemove[v.Name] += removed
			lr.mu.Unlock()
			lr.count("refresh "+v.Name, d)
		}
	}
}

// count records a successful write or refresh: always in the probe, and
// inside the window only while recording.
func (lr *loadRun) count(class string, d time.Duration) {
	if !lr.w.Writer {
		lr.classes[class].add(d)
		return
	}
	if lr.recording.Load() {
		lr.ok.Add(1)
		lr.classes[class].add(d)
	}
}

// sleepUntil sleeps to about 2ms before t, then yields until t: a plain
// sleep can overshoot by a millisecond, which would time the pacer's
// jitter instead of the service.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// writeProbe measures writes and view refreshes on the workloads that
// have no writer, with the service otherwise idle: the first call
// registers and materializes the views, and every call runs its share of
// probeCycles cycles.
func (lr *loadRun) writeProbe(slice int) {
	c := lr.svc.client()
	if slice == 0 {
		for _, v := range lr.w.Views {
			lr.attempted.Add(2)
			if err := c.register(v); err != nil {
				lr.failf("register %s: %v", v.Name, err)
				continue
			}
			added, _, err := c.refresh(v.Name)
			if err != nil {
				lr.failf("refresh %s: %v", v.Name, err)
				continue
			}
			lr.viewInit[v.Name] = added
		}
	}
	for k := slice * probeCycles / slices; k < (slice+1)*probeCycles/slices; k++ {
		lr.write(c, k, "insert", time.Now(), nil)
		lr.write(c, k, "delete", time.Now(), nil)
	}
}

// registerProbe re-registers the workload's read statements n times in
// turn; each PUT is one Prepare measured over the wire, after a forced GC.
// Re-registration also leaves every read statement freshly planned on the
// current data, so the write probe costs the next slice no replans.
func (lr *loadRun) registerProbe(n int) {
	c := lr.svc.client()
	for i := 0; i < n; i++ {
		st := lr.w.Reads[i%len(lr.w.Reads)]
		lr.attempted.Add(1)
		runtime.GC()
		t := time.Now()
		if err := c.register(st); err != nil {
			lr.failf("register %s: %v", st.Name, err)
			continue
		}
		lr.classes["register "+st.Name].add(time.Since(t))
	}
}

// gate compares every read statement's HTTP answer set-equal with the
// reference: scans in full, point statements on the first gateKeys
// distinct keys of the sequence.
func (lr *loadRun) gate(ref *reference, when string) {
	c := lr.svc.client()
	for si, st := range lr.w.Reads {
		var bodies []req
		if st.Point {
			seen := map[string]bool{}
			for _, rq := range lr.w.Seq {
				if rq.Stmt == si && !seen[rq.Key] && len(bodies) < gateKeys {
					seen[rq.Key] = true
					bodies = append(bodies, rq)
				}
			}
		} else {
			bodies = []req{{Stmt: si, Body: []byte(`{}`)}}
		}
		for _, rq := range bodies {
			lr.checkRows(c, ref, st, rq, when)
		}
	}
}

func (lr *loadRun) checkRows(c *client, ref *reference, st stmt, rq req, when string) {
	lr.attempted.Add(1)
	got, err := c.execRows(st.Name, rq.Body)
	if err != nil {
		lr.failf("%s gate %s: %v", when, st.Name, err)
		return
	}
	want, err := ref.rows(st, rq.Key)
	if err != nil {
		lr.failf("%s gate %s: %v", when, st.Name, err)
		return
	}
	if ok, diff := sameRows(got, want); !ok {
		lr.failf("%s gate %s key %q: %s", when, st.Name, rq.Key, diff)
	}
}

// viewGate checks the maintained views after the last cycle: a further
// refresh has nothing to do, the rows added over insert refreshes equal
// the rows removed over delete refreshes, and the view's answer equals a
// fresh evaluation.
func (lr *loadRun) viewGate(ref *reference) {
	c := lr.svc.client()
	for _, v := range lr.w.Views {
		lr.attempted.Add(1)
		added, removed, err := c.refresh(v.Name)
		if err != nil || added != 0 || removed != 0 {
			lr.failf("view %s final refresh: added=%d removed=%d err=%v", v.Name, added, removed, err)
		}
		if lr.viewAdded[v.Name] != lr.viewRemove[v.Name] {
			lr.failf("view %s: added %d rows over inserts, removed %d over deletes",
				v.Name, lr.viewAdded[v.Name], lr.viewRemove[v.Name])
		}
		want, err := ref.rows(v, "")
		if err != nil {
			lr.failf("view %s: %v", v.Name, err)
			continue
		}
		if lr.viewInit[v.Name] != len(want) {
			lr.failf("view %s: first refresh added %d rows, reference has %d", v.Name, lr.viewInit[v.Name], len(want))
		}
		lr.checkRows(c, ref, v, req{Body: []byte(`{}`)}, "post-window view")
		lr.rep.line("view %s rows=%d added=%d removed=%d", v.Name, len(want), lr.viewAdded[v.Name], lr.viewRemove[v.Name])
	}
}
