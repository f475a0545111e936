package flex

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fhs/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden results under testdata/")

// TestGoldenResults pins the exact Result of every flex policy on a few
// seeded jobs: layered EP, Tree and IR graphs with part or all of their
// tasks JIT-flexible, on small machines where Balance weighs native
// against foreign candidates and the small-work class forces ties.
// Any change to a policy's picks shows up as a diff; re-bless with
// -update only after an intentional behaviour change.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name     string
		wl       workload.Config
		flexFrac float64
		procs    []int
		seed     int64
	}{
		{"ep-half", workload.DefaultEP(3, workload.Layered), 0.5, []int{2, 3, 2}, 51},
		{"tree-all", workload.DefaultTree(4, workload.Layered), 1, []int{3, 2, 2, 2}, 52},
		{"ir-quarter", workload.DefaultIR(4, workload.Layered), 0.25, []int{2, 2, 3, 2}, 53},
		{"small-ep-all", workload.Small(workload.EP, 4, workload.Layered), 1, []int{1, 2, 2, 1}, 54},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		rng := rand.New(rand.NewSource(c.seed))
		g, err := workload.Generate(c.wl, rng)
		if err != nil {
			t.Fatal(err)
		}
		j := FromGraph(g, c.flexFrac, 1.5, rng)
		for _, p := range []Policy{NewGreedy(), NewBestFit(), NewBalance()} {
			res, err := Run(j, p, c.procs)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, p.Name(), err)
			}
			fmt.Fprintf(&buf, "%s %s completion=%d busy=%v placed=%v\n",
				c.name, p.Name(), res.CompletionTime, res.BusyTime, res.Placed)
		}
	}
	path := filepath.Join("testdata", "results.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create)", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s drifted:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
	}
}
