package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// FuzzSpecDecode feeds arbitrary request bodies through the submit
// path's decode and validation. Neither may panic, and a spec the
// daemon accepts must be one JSON value with nothing after it, and must
// survive a JSON round trip unchanged: the job record and the checkpoint
// header persist specs by re-encoding them.
func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"task":"campaignd-test-walk","base_seed":7,"seeds":12}`,
		`{"task":"campaignd-test-walk","base_seed":18446744073709551615,"seeds":1,"workers":2,"noise":"counter","shard_size":3}`,
		`{"task":"campaignd-test-walk","seeds":4,"noise":"stream"}`,
		`{"task":"campaignd-test-walk","seeds":4,"extra":1}`,
		`{"task":"no-such-task","seeds":4}`,
		`{"task":"campaignd-test-walk","seeds":-1,"workers":-2}`,
		`{"task":"campaignd-test-walk","seeds":1e3}`,
		`{"task":"campaignd-test-walk","seeds":1099511627776}`,
		`{"task":"campaignd-test-walk","seeds":4} trailing`,
		`{"task":"fig2","seeds":2} garbage`,
		`{"task":"campaignd-test-walk","seeds":4} {}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeSpec(bytes.NewReader(body))
		if err == nil && !json.Valid(body) {
			t.Fatalf("accepted %q, which is not one JSON value", body)
		}
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

// fuzzCheckpointSeeds bounds the jobs FuzzCheckpointRecover lets run:
// a checkpoint may name any seed count, and the harness only resumes
// campaigns it can afford to finish and re-run one-shot per input.
// Records over the daemon's maxSeeds still go through Recover, which
// must refuse them.
const fuzzCheckpointSeeds = 64

// FuzzCheckpointRecover feeds arbitrary JSONL as a job's checkpoint
// file into Manager.Recover. Recovery must never panic; every shard the
// loader keeps must come from a record whose digest matches its
// outcomes; and a job it completes must finish with a result
// byte-identical to a one-shot campaign.Run of the job's spec; a job
// naming more than maxSeeds seeds must not be adopted. The seed corpus
// is a real checkpoint, complete, with a torn tail, with a tampered
// shard record (the resume_test.go fixtures) and with 2^40 seeds in
// its spec record; testdata holds
// a checkpoint whose spec record names another base seed than its
// intact shard records.
func FuzzCheckpointRecover(f *testing.F) {
	spec := Spec{Task: "campaignd-test-walk", BaseSeed: 99, Seeds: 8, Workers: 1}
	dir := f.TempDir()
	m, err := New(Options{StateDir: dir, ShardSize: 3, Logf: func(string, ...any) {}})
	if err != nil {
		f.Fatal(err)
	}
	st, err := m.Submit(spec)
	if err != nil {
		f.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if cur, _ := m.Get(st.ID, false); cur.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			f.Fatal("seed job did not finish")
		}
	}
	m.Close()
	blob, err := os.ReadFile(filepath.Join(dir, st.ID+checkpointExt))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(blob), "\n"), "\n")
	f.Add(blob)
	torn := strings.Join(lines[:len(lines)-2], "\n") + "\n" + lines[len(lines)-2][:len(lines[len(lines)-2])/2]
	f.Add([]byte(torn))
	tampered := strings.Replace(lines[1], `"walk-sum":`, `"walk-sum":1`, 1)
	f.Add([]byte(strings.Join(append([]string{lines[0], tampered}, lines[2:len(lines)-1]...), "\n") + "\n"))
	f.Add([]byte(lines[0] + "\n"))
	overCap := strings.Replace(lines[0], `"seeds":8,`, `"seeds":1099511627776,`, 1)
	if overCap == lines[0] {
		f.Fatalf("spec record %s has no seeds field to rewrite", lines[0])
	}
	f.Add([]byte(strings.Join(append([]string{overCap}, lines[1:]...), "\n") + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		id := fuzzJobName(data)
		dir := t.TempDir()
		path := filepath.Join(dir, id+checkpointExt)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lj, err := loadCheckpoint(path)
		if err != nil {
			return
		}
		// Over-cap records go through Recover, which must refuse them
		// without allocating for their seeds.
		if lj.spec.Seeds > fuzzCheckpointSeeds && lj.spec.Seeds <= maxSeeds {
			return
		}
		checkKeptShards(t, data, lj)
		// Shards of a failing task retry without the production backoff,
		// so every input settles quickly.
		m, err := New(Options{StateDir: dir, RetryBackoff: time.Microsecond, RetryMaxBackoff: time.Microsecond,
			Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Recover(); err != nil {
			t.Fatal(err)
		}
		st, ok := m.Get(id, false)
		if lj.spec.Seeds > maxSeeds && ok {
			t.Fatalf("job %s with %d seeds was adopted; want it refused", id, lj.spec.Seeds)
		}
		if !ok {
			return
		}
		for deadline := time.Now().Add(30 * time.Second); st.State == StateRunning; st, _ = m.Get(id, false) {
			if time.Now().After(deadline) {
				t.Fatalf("recovered job still running: %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
		if st, _ = m.Get(id, true); st.State != StateDone {
			return
		}
		oneShot, err := campaign.Run(context.Background(), st.Spec.campaignSpec())
		if err != nil {
			t.Fatalf("job done but one-shot run of %+v fails: %v", st.Spec, err)
		}
		if got, want := mustJSON(t, st.Result), mustJSON(t, oneShot); got != want {
			t.Fatalf("recovered result differs from one-shot run:\n%s\nvs\n%s", got, want)
		}
	})
}

// fuzzJobName names the checkpoint file after the job id of data's
// spec record when that id is a plain file name, so the file's name
// matches the record (the loader requires it), and "job" otherwise.
func fuzzJobName(data []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimLeft(data, "\n"), []byte("\n"))
	var rec specRecord
	if json.Unmarshal(line, &rec) != nil || rec.ID == "" || len(rec.ID) > 64 {
		return "job"
	}
	for _, r := range rec.ID {
		if !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '-' || r == '_') {
			return "job"
		}
	}
	return rec.ID
}

// checkKeptShards requires every shard the loader kept to come from a
// shard record of data carrying exactly those outcomes and their digest.
func checkKeptShards(t *testing.T, data []byte, lj *loadedJob) {
	t.Helper()
	for s, outs := range lj.shards {
		want := mustJSON(t, outs)
		found := false
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec shardRecord
			if json.Unmarshal(line, &rec) != nil || rec.Type != "shard" || rec.Shard != s {
				continue
			}
			if digest, err := outcomesDigest(rec.Outcomes); err == nil && digest == rec.Digest && mustJSON(t, rec.Outcomes) == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("shard %d kept without a record whose digest matches its outcomes", s)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
