package main

import (
	"sort"

	"ptdft/internal/trace"
)

// trackFold is the self-time account of one flight-recorder track. A
// span's self time is its duration minus the union of the spans it
// contains (start and end inside its interval). On a properly nested
// track the self times sum to the busy time (the union of all spans);
// spans that overlap without nesting - pipelined fetch goroutines sharing
// a rank's track - are each billed in full, so the sum exceeds the busy
// time by the doubly attributed part.
type trackFold struct {
	ID     int
	Label  string
	Busy   int64            // union of all span intervals (ns)
	Self   int64            // sum of span self times (ns)
	ByName map[string]int64 // self time per span name (ns)
	ByCat  map[string]int64 // self time per span category (ns)
	Calls  map[string]int   // spans per name, instantaneous events included
}

// SelfVsBusy is the sum of self times over the busy time: 1 when every
// busy nanosecond is attributed to exactly one span.
func (f trackFold) SelfVsBusy() float64 {
	if f.Busy == 0 {
		return 1
	}
	return float64(f.Self) / float64(f.Busy)
}

type interval struct {
	lo, hi int64
	i      int // index into the track's span list
}

func foldTrack(t trace.TrackJSON) trackFold {
	f := trackFold{
		ID: t.ID, Label: t.Label,
		ByName: make(map[string]int64),
		ByCat:  make(map[string]int64),
		Calls:  make(map[string]int),
	}
	iv := make([]interval, 0, len(t.Spans))
	for i, s := range t.Spans {
		f.Calls[s.Name]++
		if s.DurNs > 0 {
			iv = append(iv, interval{s.StartNs, s.StartNs + s.DurNs, i})
		}
	}
	// Start order, longer first at equal starts, then begin order: an
	// enclosing span always precedes what it contains.
	sort.Slice(iv, func(a, b int) bool {
		if iv[a].lo != iv[b].lo {
			return iv[a].lo < iv[b].lo
		}
		if iv[a].hi != iv[b].hi {
			return iv[a].hi > iv[b].hi
		}
		return iv[a].i < iv[b].i
	})
	var busyHi int64
	for k, s := range iv {
		// Busy: sweep union over all spans.
		lo := max(s.lo, busyHi)
		if s.hi > lo {
			f.Busy += s.hi - lo
		}
		busyHi = max(busyHi, s.hi)
		// Self: this span minus the union of the spans it contains. Those
		// start at or after it, so they follow it in the sorted order.
		covered, cur := int64(0), s.lo
		for _, c := range iv[k+1:] {
			if c.lo >= s.hi {
				break
			}
			if c.hi > s.hi {
				continue // overlaps the end without being contained
			}
			if lo := max(c.lo, cur); c.hi > lo {
				covered += c.hi - lo
			}
			cur = max(cur, c.hi)
		}
		self := s.hi - s.lo - covered
		sp := t.Spans[s.i]
		f.Self += self
		f.ByName[sp.Name] += self
		f.ByCat[sp.Cat] += self
	}
	return f
}

// foldSet is the account of several tracks, summed.
type foldSet []trackFold

func foldRecorder(rec *trace.Recorder, keep func(id int) bool) foldSet {
	var out foldSet
	for _, t := range rec.Tracks() {
		if keep(t.ID) {
			out = append(out, foldTrack(t))
		}
	}
	return out
}

// selfSec sums the self time of the named spans over the tracks (seconds).
func (fs foldSet) selfSec(names ...string) float64 {
	var ns int64
	for _, f := range fs {
		for _, n := range names {
			ns += f.ByName[n]
		}
	}
	return float64(ns) / 1e9
}

// catSec sums the self time of a span category over the tracks (seconds).
func (fs foldSet) catSec(cat string) float64 {
	var ns int64
	for _, f := range fs {
		ns += f.ByCat[cat]
	}
	return float64(ns) / 1e9
}

func (fs foldSet) calls(name string) int {
	n := 0
	for _, f := range fs {
		n += f.Calls[name]
	}
	return n
}

func (fs foldSet) busySec() float64 {
	var ns int64
	for _, f := range fs {
		ns += f.Busy
	}
	return float64(ns) / 1e9
}

func (fs foldSet) selfTotalSec() float64 {
	var ns int64
	for _, f := range fs {
		ns += f.Self
	}
	return float64(ns) / 1e9
}
