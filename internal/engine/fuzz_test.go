package engine

import (
	"encoding/json"
	"reflect"
	"testing"

	"nanoxbar/internal/apierr"
)

// FuzzDefectMapSpec feeds arbitrary JSON to the wire defect map, as
// the v2 API does with every "chip" a request carries. Decoding must
// never panic, a rejected spec must fail as bad_spec, and an accepted
// map must survive FromMap → ToMap unchanged. The seed corpus is in
// testdata/fuzz/FuzzDefectMapSpec.
func FuzzDefectMapSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec DefectMapSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		m, err := spec.ToMap()
		if err != nil {
			if code := apierr.CodeOf(err); code != apierr.CodeBadSpec {
				t.Fatalf("ToMap(%s) failed with code %q, want %q: %v", body, code, apierr.CodeBadSpec, err)
			}
			return
		}
		again, err := FromMap(m).ToMap()
		if err != nil {
			t.Fatalf("ToMap(%s) accepted, but its FromMap form is rejected: %v", body, err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("ToMap(%s) does not survive FromMap → ToMap: %+v vs %+v", body, again, m)
		}
	})
}
