package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecNormalize holds Normalize to its contract on any JSON-decoded
// spec, the daemon's external input: it never panics, it is idempotent
// (a second call changes nothing, so a persisted spec re-normalizes to
// itself after a restart), every spec it accepts builds, and Split(n)
// for n up to min(Wearers, 4) tiles [0, Wearers) with shards that
// re-normalize unchanged. The corpus
// is seeded with the submission literals of the daemon tests (their
// front-end-only keys such as shards are ignored here) plus coupled
// shard specs bounded to a wearer range.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"wearers":0,"dur_seconds":5}`,
		`{"wearers":8,"seed":1,"dur_seconds":1}`,
		`{"wearers":8,"seed":1,"dur_seconds":1,"cells":4}`,
		`{"wearers":50,"dur_seconds":5,"cells":4,"density":10}`,
		`{"wearers":50,"dur_seconds":5,"max_iters":3}`,
		`{"wearers":50,"dur_seconds":5,"unknown_knob":1}`,
		`{"wearers":60,"seed":7,"dur_seconds":5,"cells":4,"feedback":true,"ble_frac":0.5,"block_size":8}`,
		`{"wearers":90,"seed":13,"dur_seconds":10,"workers":2,"ble_frac":1,"cells":6,"block_size":16,"shards":2}`,
		`{"wearers":120,"seed":11,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"block_size":16}`,
		`{"wearers":120,"seed":12,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"block_size":16,"shards":3}`,
		`{"wearers":120,"seed":15,"dur_seconds":10,"workers":2,"ble_frac":0.5,"cells":8,"feedback":true,"max_iters":64,"tol_ppm":200,"series_seconds":2,"block_size":16}`,
		`{"wearers":6000,"seed":11,"dur_seconds":30,"workers":2,"ble_frac":0.5,"block_size":64}`,
		`{"wearers":6000,"seed":23,"dur_seconds":30,"workers":2,"ble_frac":0.5,"cells":16,"series_seconds":10,"block_size":64,"shards":3}`,
		`{"wearers":9000,"seed":43,"dur_seconds":20,"workers":2,"ble_frac":0.5,"cells":8,"series_seconds":8,"block_size":64,"shards":3}`,
		`{"wearers":1000,"dur_seconds":1,"density":2.5,"per_spread":0.5,"batt_spread":0.3,"harvest_prob":0.3,"drop_prob":0.25,"drain":true}`,
		`{"wearers":8,"seed":1,"dur_seconds":1,"cells":2,"first_wearer":4,"end_wearer":8}`,
		`{"wearers":8,"seed":1,"dur_seconds":1,"cells":2,"feedback":true,"first_wearer":2,"end_wearer":4}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var s Spec
		if json.Unmarshal([]byte(raw), &s) != nil || s.Normalize() != nil {
			return
		}
		once, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		again := s
		if err := again.Normalize(); err != nil {
			t.Fatalf("normalized spec %s refused on a second pass: %v", once, err)
		}
		twice, err := json.Marshal(&again)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, s) || !bytes.Equal(once, twice) {
			t.Fatalf("Normalize is not idempotent:\n%s\n%s", once, twice)
		}
		if _, _, err := s.Build(nil); err != nil {
			t.Fatalf("normalized spec %s does not build: %v", once, err)
		}
		for n := 1; n <= min(s.Wearers, 4); n++ {
			shards, err := s.Split(n)
			if err != nil {
				t.Fatalf("normalized spec %s refused Split(%d): %v", once, n, err)
			}
			if len(shards) != n {
				t.Fatalf("Split(%d) of %s made %d shards", n, once, len(shards))
			}
			checkTiling(t, s.Wearers, shards)
		}
	})
}
