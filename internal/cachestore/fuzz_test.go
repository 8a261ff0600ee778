package cachestore

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzFingerprint is the fingerprint FuzzRead expects; the seed corpus
// in testdata/fuzz/FuzzRead holds a valid snapshot stamped with it and
// one stamped with another.
const fuzzFingerprint = "fuzz-fingerprint"

// FuzzRead feeds arbitrary bytes to the snapshot decoder. Read must
// never panic, and every snapshot it accepts must survive a Write→Read
// round trip unchanged: what the decoder lets into a cache, the encoder
// can persist again.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, entries, err := Read(bytes.NewReader(data), fuzzFingerprint)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, fp, entries); err != nil {
			t.Fatalf("re-encoding %d accepted entries: %v", len(entries), err)
		}
		fp2, again, err := Read(&buf, fuzzFingerprint)
		if err != nil {
			t.Fatalf("re-reading the round trip: %v", err)
		}
		if fp2 != fp || !reflect.DeepEqual(again, entries) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", again, entries)
		}
	})
}
