package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that caused it (0 for the root). Times are nanoseconds since the
// tracer's epoch. Alg/Round/Client are -1 or empty when they do not apply.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Alg      string `json:"alg,omitempty"`
	Round    int    `json:"round"`
	Client   int    `json:"client"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps the spans of one traced pass in memory; they are written out
// only when the pass has ended, so recording costs one mutex and one append.
// It is safe for concurrent use: table3_parallel records from ten client
// goroutines and the swarm from the server's RPC goroutines.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// tags are the optional identifiers of a span.
type tags struct {
	alg           string
	round, client int
}

var noTags = tags{round: -1, client: -1}

func algTag(alg string) tags  { return tags{alg: alg, round: -1, client: -1} }
func clientTag(id int) tags   { return tags{round: -1, client: id} }
func roundTag(r int) tags     { return tags{round: r, client: -1} }
func (t tags) at(r int) tags  { t.round = r; return t }
func (t tags) of(id int) tags { t.client = id; return t }

// begin opens a span now and returns its id; close it with end.
func (t *tracer) begin(name string, parent int, tg tags) int {
	return t.beginAt(name, parent, tg, time.Now())
}

func (t *tracer) beginAt(name string, parent int, tg tags, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, StartNs: int64(start.Sub(t.epoch)), EndNs: -1,
		Workload: t.workload, Alg: tg.alg, Round: tg.round, Client: tg.client,
	})
	return id
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].EndNs = int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// add records an already-finished interval. A nil tracer records nothing,
// so code shared with the untraced passes needs no branch.
func (t *tracer) add(name string, parent int, tg tags, start, end time.Time) int {
	if t == nil {
		return 0
	}
	id := t.beginAt(name, parent, tg, start)
	t.endAt(id, end)
	return id
}

// open reports whether span id has not been ended yet.
func (t *tracer) open(id int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].EndNs < 0
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans parses a file written by writeSpans.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// interval is a half-open [lo, hi) stretch of trace time.
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, overlaps counted
// once (client goroutines of a parallel segment overlap).
func unionLen(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, end int64
	first := true
	for _, x := range iv {
		if x.hi <= x.lo {
			continue
		}
		switch {
		case first || x.lo >= end:
			total += x.hi - x.lo
			end = x.hi
			first = false
		case x.hi > end:
			total += x.hi - end
			end = x.hi
		}
	}
	return total
}

// spanTree indexes spans by parent.
type spanTree struct {
	spans    []span
	children map[int][]int // parent id -> indexes into spans
}

func buildTree(spans []span) spanTree {
	t := spanTree{spans: spans, children: map[int][]int{}}
	for i, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], i)
	}
	return t
}

// selfNs is a span's duration minus the part of it its children cover.
func (t spanTree) selfNs(i int) int64 {
	s := t.spans[i]
	var iv []interval
	for _, c := range t.children[s.ID] {
		iv = append(iv, clip(t.spans[c], s))
	}
	return (s.EndNs - s.StartNs) - unionLen(iv)
}

func clip(s, to span) interval {
	return interval{max(s.StartNs, to.StartNs), min(s.EndNs, to.EndNs)}
}

// childCoverage is the share of span i that its direct children cover. What
// is left is the span's self time: for the root, work the traced driver did
// between the calls it put spans around.
func (t spanTree) childCoverage(i int) float64 {
	s := t.spans[i]
	if s.EndNs <= s.StartNs {
		return 0
	}
	return 1 - float64(t.selfNs(i))/float64(s.EndNs-s.StartNs)
}

// checkSpans verifies the structural contract of a span file: ids are
// 1..n in order, every span is closed, and every parent exists and contains
// its child.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != i+1 {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) [%d,%d] escapes parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.StartNs, s.EndNs, p.ID, p.Name, p.StartNs, p.EndNs)
		}
	}
	return nil
}

// layerRow is the per-name roll-up of a trace: how many spans, their total
// duration and their total self time.
type layerRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// rollUp sums duration and self time per span name, largest self time first.
func rollUp(spans []span) []layerRow {
	t := buildTree(spans)
	byName := map[string]*layerRow{}
	for i, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.TotalS += float64(s.EndNs-s.StartNs) / 1e9
		r.SelfS += float64(t.selfNs(i)) / 1e9
	}
	rows := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// spanDurations returns the durations of every span with the given name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func durSum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func durFloats(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
