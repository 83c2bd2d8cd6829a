package main

import (
	"bytes"
	"io"
	"testing"
)

var workloadNames = []string{"lookup", "analytic", "rw"}

// The same seed must give byte-identical inputs: CSV, request sequence and
// writer batches.
func TestWorkloadDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := makeWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeWorkload(name, 7)
		c, _ := makeWorkload(name, 8)
		if len(a.Rels) != len(b.Rels) {
			t.Fatalf("%s: relation counts differ", name)
		}
		for i := range a.Rels {
			if !bytes.Equal(a.Rels[i].CSV, b.Rels[i].CSV) {
				t.Errorf("%s: relation %s CSV differs for one seed", name, a.Rels[i].Name)
			}
			if bytes.Equal(a.Rels[i].CSV, c.Rels[i].CSV) {
				t.Errorf("%s: relation %s CSV is the same for seeds 7 and 8", name, a.Rels[i].Name)
			}
		}
		if len(a.Seq) != seqLen || len(b.Seq) != seqLen {
			t.Fatalf("%s: sequence lengths %d, %d", name, len(a.Seq), len(b.Seq))
		}
		for i := range a.Seq {
			if a.Seq[i].Stmt != b.Seq[i].Stmt || !bytes.Equal(a.Seq[i].Body, b.Seq[i].Body) {
				t.Fatalf("%s: request %d differs for one seed", name, i)
			}
		}
		for k := range a.Batches {
			if !bytes.Equal(a.batchBody(k), b.batchBody(k)) {
				t.Fatalf("%s: writer batch %d differs for one seed", name, k)
			}
		}
	}
}

func TestResponseScanning(t *testing.T) {
	body := []byte(`{"added":[["a","b"],["c","d"]],"removed":[]}` + "\n")
	if n, err := countRows(body, `"added":`); err != nil || n != 2 {
		t.Errorf("added = %d, %v; want 2", n, err)
	}
	if n, err := countRows(body, `"removed":`); err != nil || n != 0 {
		t.Errorf("removed = %d, %v; want 0", n, err)
	}
	exec := []byte(`{"rows":[[1,2]],"n":1,"width":2,"bool":true,"engine":"x","us":3}`)
	if n, err := tailInt(exec, `,"n":`); err != nil || n != 1 {
		t.Errorf("n = %d, %v; want 1", n, err)
	}
}

// A short untraced run of every workload must pass the correctness gate
// with no failed request.
func TestSmokeLoad(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := makeWorkload(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			rep := newReport(io.Discard)
			attempted, failed, err := runLoad(w, 1, rep)
			if err != nil {
				t.Fatal(err)
			}
			if attempted == 0 || failed != 0 {
				t.Fatalf("attempted %d, failed %d", attempted, failed)
			}
			for _, m := range []string{"setup_s", "rps", "read_p50_ms", "read_p95_ms", "write_ms",
				"refresh_ms", "register_ms", "live_mb"} {
				if v, ok := rep.metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value", m, v)
				}
			}
		})
	}
}

// A short traced run of every workload reports every per-layer metric and
// writes its span and layer files.
func TestSmokeTrace(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := makeWorkload(name, 4)
			if err != nil {
				t.Fatal(err)
			}
			rep := newReport(io.Discard)
			_, failed, err := runTrace(w, 1, rep, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 {
				t.Fatalf("failed %d", failed)
			}
			for _, m := range perLayer {
				if _, ok := rep.metrics[m.name]; !ok {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
			for _, m := range []string{"prepared.exec_us", "eval.exec_us", "yannakakis.exec_us", "ivm.refresh_us", "query.write_us"} {
				if rep.metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want a positive time", m, rep.metrics[m].Value)
				}
			}
		})
	}
}
