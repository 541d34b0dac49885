package campaignd

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecDecode feeds arbitrary request bodies through the submit
// path's decode and validation. Neither may panic, and a spec the
// daemon accepts must survive a JSON round trip unchanged: the job
// record and the checkpoint header persist specs by re-encoding them.
func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"task":"campaignd-test-walk","base_seed":7,"seeds":12}`,
		`{"task":"campaignd-test-walk","base_seed":18446744073709551615,"seeds":1,"workers":2,"noise":"counter","shard_size":3}`,
		`{"task":"campaignd-test-walk","seeds":4,"noise":"stream"}`,
		`{"task":"campaignd-test-walk","seeds":4,"extra":1}`,
		`{"task":"no-such-task","seeds":4}`,
		`{"task":"campaignd-test-walk","seeds":-1,"workers":-2}`,
		`{"task":"campaignd-test-walk","seeds":1e3}`,
		`{"task":"campaignd-test-walk","seeds":4} trailing`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		back, err := decodeSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-decoding %s: %v", blob, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec: %+v -> %s -> %+v", spec, blob, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped spec %s no longer validates: %v", blob, err)
		}
	})
}
