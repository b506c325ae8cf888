package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestStreamMatchesSample pins the streaming generator to the materialized
// sampler: same model, seed, and n must produce bit-identical tasks in the
// same order (the RNG draw order is part of the contract).
func TestStreamMatchesSample(t *testing.T) {
	for _, id := range AllDatasets() {
		m := Lookup(id)
		for _, seed := range []int64{1, 7, 42} {
			const n = 300
			want := m.Sample(rand.New(rand.NewSource(seed)), n)
			s := m.Stream(rand.New(rand.NewSource(seed)), n)
			for i := 0; i < n; i++ {
				got, ok := s.Next()
				if !ok {
					t.Fatalf("%v seed %d: stream ended at task %d of %d", id, seed, i, n)
				}
				if got != want[i] {
					t.Fatalf("%v seed %d task %d: stream %+v vs sample %+v", id, seed, i, got, want[i])
				}
			}
			if _, ok := s.Next(); ok {
				t.Fatalf("%v seed %d: stream emitted more than %d tasks", id, seed, n)
			}
		}
	}
}

// TestCSVStreamRoundTrip pins the streaming CSV reader to the batch
// importer on a valid trace.
func TestCSVStreamRoundTrip(t *testing.T) {
	tasks := Lookup(Google).Sample(rand.New(rand.NewSource(3)), 200)
	var buf bytes.Buffer
	if err := ExportCSV(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	s, err := NewCSVStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tasks {
		got, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended at row %d of %d (err: %v)", i, len(tasks), s.Err())
		}
		if got != tasks[i] {
			t.Fatalf("row %d: %+v vs %+v", i, got, tasks[i])
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream emitted rows past the trace")
	}
	if s.Err() != nil {
		t.Fatalf("clean EOF reported error: %v", s.Err())
	}
}

// TestCSVStreamRejections pins the deterministic failure modes: bad header,
// malformed row, arrival regression.
func TestCSVStreamRejections(t *testing.T) {
	if _, err := NewCSVStream(strings.NewReader("wrong,header\n")); err == nil {
		t.Fatal("bad header accepted")
	}
	cases := map[string]string{
		"malformed-row":      "id,arrival,cpu,mem_gib,duration,source\nx,0,1,1,1,0\n",
		"zero-duration":      "id,arrival,cpu,mem_gib,duration,source\n0,0,1,1,0,0\n",
		"arrival-regression": "id,arrival,cpu,mem_gib,duration,source\n0,5,1,1,1,0\n1,2,1,1,1,0\n",
	}
	for name, trace := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := NewCSVStream(strings.NewReader(trace))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := s.Next(); !ok {
					break
				}
			}
			if s.Err() == nil {
				t.Fatal("invalid trace streamed without error")
			}
			// Stopped streams stay stopped.
			if _, ok := s.Next(); ok {
				t.Fatal("stream resumed after failure")
			}
		})
	}
}

// TestCSVStreamMidStreamFailure pins the mid-stream failure contract: after
// N good rows, a malformed row or an out-of-order arrival stops the stream
// deterministically at that row, the already-emitted tasks are exactly the
// batch-import prefix, and Err stays set while Next stays stopped — even
// though more valid rows follow the offending one.
func TestCSVStreamMidStreamFailure(t *testing.T) {
	good := Lookup(Google).Sample(rand.New(rand.NewSource(9)), 10)
	var buf bytes.Buffer
	if err := ExportCSV(&buf, good); err != nil {
		t.Fatal(err)
	}
	prefix := buf.String()
	lastArrival := good[len(good)-1].Arrival
	cases := map[string]string{
		"malformed-row": "x,bogus,1,1,1,0\n",
		"out-of-order":  fmt.Sprintf("10,%d,1,1,1,0\n", lastArrival-1),
	}
	trailer := fmt.Sprintf("11,%d,1,1,1,0\n", lastArrival+5)
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := NewCSVStream(strings.NewReader(prefix + bad + trailer))
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range good {
				got, ok := s.Next()
				if !ok {
					t.Fatalf("stream stopped at good row %d (err: %v)", i, s.Err())
				}
				if got != want {
					t.Fatalf("good row %d corrupted by later failure: %+v vs %+v", i, got, want)
				}
				if s.Err() != nil {
					t.Fatalf("Err set while good rows remained: %v", s.Err())
				}
			}
			if tk, ok := s.Next(); ok {
				t.Fatalf("offending row emitted: %+v", tk)
			}
			if s.Err() == nil {
				t.Fatal("mid-stream failure not reported")
			}
			// Stopped streams stay stopped: the valid trailer row after the
			// failure must never surface.
			first := s.Err()
			if _, ok := s.Next(); ok {
				t.Fatal("stream resumed past a failure")
			}
			if s.Err() != first {
				t.Fatalf("Err changed across calls: %v vs %v", first, s.Err())
			}
		})
	}
}

// FuzzCSVStream holds the streaming CSV reader to its own contract on
// arbitrary input — every emitted task is well-formed, arrivals never
// regress, a stopped stream stays stopped with a stable Err — and holds
// ImportCSV, its drain, to it: the batch reader accepts exactly the traces
// the stream reads to a clean EOF, with exactly the stream's tasks.
// (FuzzCSVTrace covers the batch entry point's export/import round trip.)
func FuzzCSVStream(f *testing.F) {
	var buf bytes.Buffer
	if err := ExportCSV(&buf, []Task{
		{ID: 0, Arrival: 0, CPU: 2, Mem: 1.5, Duration: 3, Source: Google},
		{ID: 1, Arrival: 4, CPU: 1, Mem: 0.5, Duration: 1, Source: Alibaba2017},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("id,arrival,cpu,mem_gib,duration,source\n0,5,1,1,1,0\n1,2,1,1,1,0\n")
	f.Add("id,arrival,cpu,mem_gib,duration,source\nx,0,1,1,1,0\n")
	f.Add("id,arrival,cpu,mem_gib,duration,source\n0,0,1,1,1,0\n1,1,1,NaN,1,0\n2,2,1,1,1,0\n")
	f.Add("wrong,header\n")
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		imported, impErr := ImportCSV(strings.NewReader(data))
		s, err := NewCSVStream(strings.NewReader(data))
		if err != nil {
			if impErr == nil {
				t.Fatalf("stream rejected header ImportCSV accepted: %v", err)
			}
			return
		}
		var tasks []Task
		for {
			task, ok := s.Next()
			if !ok {
				break
			}
			if task.Arrival < 0 || task.CPU < 1 || !(task.Mem > 0) || math.IsInf(task.Mem, 1) ||
				task.Duration < 1 || task.SLO < 0 || int(task.SLO) >= NumSLOClasses {
				t.Fatalf("stream emitted malformed task %+v", task)
			}
			if n := len(tasks); n > 0 && task.Arrival < tasks[n-1].Arrival {
				t.Fatalf("stream emitted arrival regression at row %d: %d after %d", n, task.Arrival, tasks[n-1].Arrival)
			}
			tasks = append(tasks, task)
		}
		stopped := s.Err()
		if _, ok := s.Next(); ok {
			t.Fatal("stream resumed after stopping")
		}
		if s.Err() != stopped {
			t.Fatalf("Err changed across calls: %v vs %v", stopped, s.Err())
		}
		if (impErr == nil) != (stopped == nil) {
			t.Fatalf("ImportCSV error %v but stream error %v", impErr, stopped)
		}
		if impErr != nil {
			return
		}
		if len(tasks) != len(imported) {
			t.Fatalf("task counts differ: stream %d vs import %d", len(tasks), len(imported))
		}
		for i := range tasks {
			if tasks[i] != imported[i] {
				t.Fatalf("task %d differs: %+v vs %+v", i, tasks[i], imported[i])
			}
		}
	})
}
