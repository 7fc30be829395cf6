package stats

import (
	"reflect"
	"testing"
	"unsafe"
)

// fieldValue reads a (possibly unexported) struct field for comparison.
// Test-only: the production code never reflects.
func fieldValue(v reflect.Value) any {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface()
}

// populateHistogram drives every Histogram field away from its
// constructed state through the public API, then verifies by
// reflection that it actually did — so a future field that Record does
// not touch (and Reset therefore cannot be proven to restore by this
// test alone) is flagged the day it is added, not the day a pooled
// rerun silently reuses it. Array fields are checked element by
// element: one value per chunk makes every chunk pointer move, and 76
// chunks take five slabs, so the slab field holds a partly cut one.
func populateHistogram(t *testing.T, h *Histogram) {
	t.Helper()
	for _, v := range []int64{1, 7, 900, 1 << 20, 1 << 34} {
		h.Record(v)
	}
	for ci := 0; ci < numChunks; ci++ {
		h.Record(bucketLow(ci * chunkSize))
	}
	fresh := NewHistogram()
	hv := reflect.ValueOf(h).Elem()
	fv := reflect.ValueOf(fresh).Elem()
	for i := 0; i < hv.NumField(); i++ {
		name := hv.Type().Field(i).Name
		if f := hv.Field(i); f.Kind() == reflect.Array {
			for j := 0; j < f.Len(); j++ {
				if reflect.DeepEqual(fieldValue(f.Index(j)), fieldValue(fv.Field(i).Index(j))) {
					t.Errorf("populate did not move Histogram field %s[%d] off its constructed state; extend populateHistogram", name, j)
				}
			}
			continue
		}
		if reflect.DeepEqual(fieldValue(hv.Field(i)), fieldValue(fv.Field(i))) {
			t.Errorf("populate did not move Histogram field %s off its constructed state; extend populateHistogram (and check Reset covers the new field)", name)
		}
	}
}

// TestHistogramResetRestoresConstructedState is the reflection-based
// new-field tripwire for Histogram.Reset (afalint resetcover):
// populate every field, reset, and require zero-equivalence with a
// freshly constructed histogram — field by field, so the failure names
// the leak.
func TestHistogramResetRestoresConstructedState(t *testing.T) {
	h := NewHistogram()
	populateHistogram(t, h)
	h.Reset()
	if !reflect.DeepEqual(h, NewHistogram()) {
		hv, fv := reflect.ValueOf(h).Elem(), reflect.ValueOf(NewHistogram()).Elem()
		for i := 0; i < hv.NumField(); i++ {
			if !reflect.DeepEqual(fieldValue(hv.Field(i)), fieldValue(fv.Field(i))) {
				t.Errorf("Reset leaves Histogram field %s dirty: %v (want %v)",
					hv.Type().Field(i).Name, hv.Field(i), fv.Field(i))
			}
		}
	}
	// And the reset histogram must behave fresh, not just compare fresh.
	if h.Count() != 0 {
		t.Errorf("Count() = %d after Reset", h.Count())
	}
	h.Record(5)
	if h.Count() != 1 {
		t.Errorf("Count() = %d after Reset+Record", h.Count())
	}
}
