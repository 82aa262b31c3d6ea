package passivespread

import (
	"context"
	"errors"
	"strings"
	"testing"

	"passivespread/internal/serve"
)

// seedSweepCSV renders a real two-topology sweep report once, giving the
// fuzzers a well-formed corpus entry that includes the topology column.
func seedSweepCSV(tb testing.TB) *SweepReport {
	tb.Helper()
	sweep, err := NewSweep(SweepSpec{
		Ns:         []int{64},
		Topologies: []Topology{CompleteTopology(), RandomRegular(8)},
		Replicates: 2,
		Seed:       3,
		MaxRounds:  40,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := sweep.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// FuzzParseSweepCSV: ParseSweepCSV must never panic, and any input it
// accepts must round-trip — rendering the parsed rows and re-parsing
// them is a fixed point (the renderer's canonical formatting absorbs
// any cosmetic variation the parser tolerated).
func FuzzParseSweepCSV(f *testing.F) {
	rep := seedSweepCSV(f)
	f.Add(rep.CSV())
	header := "cell,scenario,engine,topology,n,ell,seed,replicates,converged,success_rate,mean_rounds,median_rounds,p95_rounds,max_rounds,error"
	f.Add(header + "\n")
	f.Add(header + "\n0,worst-case,agent-fast,ring:2,64,18,1,2,2,1,4,4,4,4,\n")
	f.Add(header + "\n0,worst-case,agent-fast,complete,64,18,1,2,2,1,4,4,4,4,boom\n")
	// Malformed rows: short, long, non-numeric, bad seed, wrong header.
	f.Add(header + "\n0,worst-case\n")
	f.Add(header + "\n0,worst-case,agent-fast,complete,64,18,1,2,2,1,4,4,4,4,x,y\n")
	f.Add(header + "\nzero,worst-case,agent-fast,complete,64,18,1,2,2,1,4,4,4,4,\n")
	f.Add(header + "\n0,worst-case,agent-fast,complete,64,18,-1,2,2,1,4,4,4,4,\n")
	f.Add(header + "\n0,worst-case,agent-fast,complete,64,18,1,2,2,NaN,4,4,4,4,\n")
	f.Add("cell,scenario\n0,worst-case\n")
	f.Add("")
	f.Add("\"unterminated")

	f.Fuzz(func(t *testing.T, input string) {
		rows, err := ParseSweepCSV(strings.NewReader(input))
		if err != nil {
			return // rejected is fine; panicking is the bug being hunted
		}
		rendered := (&SweepReport{Cells: len(rows), Replicates: 0, Rows: rows}).CSV()
		rows2, err := ParseSweepCSV(strings.NewReader(rendered))
		if err != nil {
			t.Fatalf("re-parsing our own rendering failed: %v\ninput: %q\nrendered: %q", err, input, rendered)
		}
		rendered2 := (&SweepReport{Cells: len(rows2), Replicates: 0, Rows: rows2}).CSV()
		if rendered != rendered2 {
			t.Fatalf("render∘parse is not a fixed point:\nfirst:  %q\nsecond: %q", rendered, rendered2)
		}
	})
}

// FuzzParseSweepJSON: same contract for the JSON artifact.
func FuzzParseSweepJSON(f *testing.F) {
	rep := seedSweepCSV(f)
	data, err := rep.JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(data))
	f.Add(`{}`)
	f.Add(`{"cells": 1, "replicates": 2, "rows": [{"cell": 0, "topology": "ring:2"}]}`)
	f.Add(`{"cells": "one"}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"rows": [{"seed": -1}]}`)
	f.Add(``)
	f.Add(`{`)

	f.Fuzz(func(t *testing.T, input string) {
		rep, err := ParseSweepJSON([]byte(input))
		if err != nil {
			return
		}
		rendered, err := rep.JSON()
		if err != nil {
			t.Fatalf("re-rendering parsed JSON failed: %v\ninput: %q", err, input)
		}
		rep2, err := ParseSweepJSON(rendered)
		if err != nil {
			t.Fatalf("re-parsing our own rendering failed: %v\nrendered: %s", err, rendered)
		}
		rendered2, err := rep2.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(rendered) != string(rendered2) {
			t.Fatalf("render∘parse is not a fixed point:\nfirst:  %s\nsecond: %s", rendered, rendered2)
		}
	})
}

// TestParseSweepCSVTopologyColumn: the seed-corpus cases as a plain
// test, so the malformed-row behavior is exercised on every `go test`
// run, not only under `go test -fuzz`.
func TestParseSweepCSVTopologyColumn(t *testing.T) {
	rep := seedSweepCSV(t)
	rows, err := ParseSweepCSV(strings.NewReader(rep.CSV()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Topology != "complete" || rows[1].Topology != "random-regular:8" {
		t.Fatalf("round-trip lost the topology column: %+v", rows)
	}
	bad := []string{
		"", // no header
		"cell,scenario\n",
		"cell,scenario,engine,n,ell,seed,replicates,converged,success_rate,mean_rounds,median_rounds,p95_rounds,max_rounds,error\n", // pre-topology header
		"cell,scenario,engine,topology,n,ell,seed,replicates,converged,success_rate,mean_rounds,median_rounds,p95_rounds,max_rounds,error\n0,w,f,complete,64\n",
		"cell,scenario,engine,topology,n,ell,seed,replicates,converged,success_rate,mean_rounds,median_rounds,p95_rounds,max_rounds,error\nzero,w,f,complete,64,18,1,2,2,1,4,4,4,4,\n",
	}
	for _, input := range bad {
		if _, err := ParseSweepCSV(strings.NewReader(input)); err == nil {
			t.Errorf("ParseSweepCSV accepted %q", input)
		}
	}
}

// quickE01CellKeys are the canonical keys of the quick-scale E01 grid
// as the CI sweep fleet runs it (seed 1): the seed corpus of
// FuzzParseCellKey.
func quickE01CellKeys(tb testing.TB) []CellKey {
	tb.Helper()
	sweep, err := NewSweep(SweepSpec{
		Ns:         []int{256, 1024, 4096},
		Scenarios:  namedScenarios(DefaultScenario, "half-split", "uniform"),
		Replicates: 8,
		Seed:       1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return sweep.CellKeys()
}

// FuzzParseCellKey: ParseCellKey must never panic, and any string it
// accepts must re-canonicalize to itself — otherwise one cell could be
// cached under two content addresses.
func FuzzParseCellKey(f *testing.F) {
	keys := quickE01CellKeys(f)
	for _, k := range keys {
		if _, err := ParseCellKey(k.Canonical()); err != nil {
			f.Fatalf("quick E01 key does not parse: %v", err)
		}
		f.Add(k.Canonical())
	}
	k := keys[0]
	k.Sources, k.NoiseEps, k.FlipFrac = 3, 0.05, 0.25
	f.Add(k.Canonical())
	// Near-canonical variants the parser must reject: signed or
	// zero-prefixed numbers, a non-shortest float, reordered and
	// duplicated fields, an explicit zero override, a trailing space.
	c := keys[0].Canonical()
	f.Add(strings.Replace(c, " n=256 ", " n=0256 ", 1))
	f.Add(strings.Replace(c, " n=256 ", " n=+256 ", 1))
	f.Add(c + " noise_eps=0.050")
	f.Add(c + " flip_frac=0.25 noise_eps=0.05")
	f.Add(c + " sources=3 sources=3")
	f.Add(c + " sources=0")
	f.Add(c + " ")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseCellKey(s)
		if err != nil {
			return
		}
		if got := k.Canonical(); got != s {
			t.Fatalf("ParseCellKey accepted a non-canonical key:\ninput:     %q\ncanonical: %q", s, got)
		}
	})
}

// shardCorpus renders a small sweep's real shard artifacts: the whole
// grid as 1/1 and as the two halves 1/2, 2/2. They seed the shard
// fuzzers.
func shardCorpus(tb testing.TB) (whole []byte, halves [2][]byte) {
	tb.Helper()
	render := func(sh Shard) []byte {
		sweep, err := NewSweep(SweepSpec{
			Ns: []int{64, 128}, Replicates: 2, Seed: 3, MaxRounds: 60, Shard: sh,
		})
		if err != nil {
			tb.Fatal(err)
		}
		rep, err := sweep.Run(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		art, err := sweep.ShardArtifact(rep)
		if err != nil {
			tb.Fatal(err)
		}
		data, err := art.JSON()
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return render(Shard{Index: 1, Count: 1}), [2][]byte{render(Shard{Index: 1, Count: 2}), render(Shard{Index: 2, Count: 2})}
}

// FuzzParseShard: ParseShard must never panic, must reject with
// ErrInvalidOptions, and String∘ParseShard must be a fixed point: the
// rendering of an accepted shard parses back to the same shard.
func FuzzParseShard(f *testing.F) {
	whole, halves := shardCorpus(f)
	for _, data := range [][]byte{whole, halves[0], halves[1]} {
		art, err := ParseShardArtifact(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(art.Shard)
	}
	for _, s := range []string{"", "/", "1/", "/2", "0/0", "0/2", "3/2", "01/2", "+1/2", "-1/2", " 1/2", "1/2/3", "1/0", "9223372036854775807/9223372036854775807"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShard(s)
		if err != nil {
			if !errors.Is(err, ErrInvalidOptions) {
				t.Fatalf("ParseShard(%q) rejected with an untyped error: %v", s, err)
			}
			return
		}
		canon := sh.String()
		again, err := ParseShard(canon)
		if err != nil || again != sh || again.String() != canon {
			t.Fatalf("ParseShard(%q) = %+v renders %q, which parses to %+v, %v", s, sh, canon, again, err)
		}
	})
}

// FuzzParseShardArtifact: any pair of byte strings parses as shard
// artifacts or is rejected, and whatever parses goes through
// MergeShards with full verification, which must reject it with
// ErrShardMerge or return a verified report — every grid cell exactly
// once, in cell order, each row the one an artifact carried under a
// digest of its own body. Nothing may panic.
func FuzzParseShardArtifact(f *testing.F) {
	whole, halves := shardCorpus(f)
	f.Add(whole, []byte(nil))
	f.Add(halves[0], halves[1])
	f.Add(halves[1], halves[0])
	f.Add(halves[0], halves[0])
	f.Add(halves[0], []byte(nil))
	f.Add(whole, halves[0])
	f.Add([]byte(`{"version":"fetshard/v1","shard":"1/1","cells":1,"replicates":1,"seed":0,"rows":[{"cell":0}]}`), []byte(nil))
	f.Add([]byte(`{`), []byte(`[]`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var arts []*ShardArtifact
		for _, data := range [][]byte{a, b} {
			if art, err := ParseShardArtifact(data); err == nil {
				arts = append(arts, art)
			}
		}
		if len(arts) == 0 {
			return
		}
		rep, err := MergeShards(arts, true)
		if err != nil {
			if !errors.Is(err, ErrShardMerge) {
				t.Fatalf("MergeShards rejected with an untyped error: %v", err)
			}
			return
		}
		if len(rep.Rows) != rep.Cells {
			t.Fatalf("merged %d rows for %d cells", len(rep.Rows), rep.Cells)
		}
		for i, row := range rep.Rows {
			if row.Cell != i {
				t.Fatalf("merged row %d is cell %d", i, row.Cell)
			}
			body, err := sweepRowBody(row)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, art := range arts {
				for _, r := range art.Rows {
					found = found || (r.Cell == i && r.Digest == serve.HashHex(string(body)))
				}
			}
			if !found {
				t.Fatalf("merged cell %d carries a row no artifact vouched for", i)
			}
		}
	})
}
