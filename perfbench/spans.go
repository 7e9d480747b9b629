package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors every recorded timestamp: spans store nanoseconds since
// process start on the monotonic clock, so intervals from different
// goroutines and layers compare directly.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// interval is a closed-open [Start, End) span of monotonic nanoseconds.
type interval struct{ Start, End int64 }

func (iv interval) dur() int64 { return iv.End - iv.Start }

// covered returns how much of parent the union of children covers;
// children are clipped to the parent and may overlap one another.
func covered(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	var cur interval
	open := false
	for _, c := range cs {
		switch {
		case !open:
			cur, open = c, true
		case c.Start <= cur.End:
			if c.End > cur.End {
				cur.End = c.End
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if open {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the time its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}

// keyed is an interval tagged with the cache key it served.
type keyed struct {
	Key string
	interval
}

// classifyFills splits edge requests into fills and hits by key
// overlap: an edge request is a fill when some origin request for the
// same key overlaps it in time — the leader that issued the origin
// fetch and every singleflight follower that waited on it. For each
// fill the overlapping origin intervals are returned, clipped to the
// edge request, so the caller can take the fill's self time.
func classifyFills(edge, origin []keyed) (fill []bool, overlaps [][]interval) {
	byKey := make(map[string][]interval, len(origin))
	for _, o := range origin {
		byKey[o.Key] = append(byKey[o.Key], o.interval)
	}
	fill = make([]bool, len(edge))
	overlaps = make([][]interval, len(edge))
	for i, e := range edge {
		for _, o := range byKey[e.Key] {
			if o.Start < e.End && e.Start < o.End {
				fill[i] = true
				overlaps[i] = append(overlaps[i], o)
			}
		}
	}
	return fill, overlaps
}

// span is one benchmark-recorded interval around a call into a layer.
// Spans of one request share ReqID; Parent links a span to the span
// that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ReqID  uint64 `json:"req_id,omitempty"`
}

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped rather than held, so a long traced run cannot exhaust memory.
const maxSpans = 1 << 19

// spanLog holds the traced run's spans in memory until the run ends.
type spanLog struct {
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores the spans as NDJSON, one object per line, in start order.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.spans, func(i, j int) bool { return l.spans[i].Start < l.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
