package multi

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

// TestGoldenResults pins the exact Result of every stream policy on a
// few seeded streams: batch and staggered releases of layered EP, Tree
// and IR jobs on small machines, where pools hold many contested
// candidates and the small-work classes force ties. Any change to a
// policy's picks shows up as a diff; re-bless with -update only after
// an intentional behaviour change.
func TestGoldenResults(t *testing.T) {
	cases := []struct {
		name  string
		wl    workload.Config
		gap   float64
		procs []int
		seed  int64
	}{
		{"ep-batch", workload.DefaultEP(3, workload.Layered), 0, []int{2, 3, 2}, 41},
		{"small-tree-batch", workload.Small(workload.Tree, 3, workload.Layered), 0, []int{3, 2, 2}, 42},
		{"ir-stagger", workload.DefaultIR(4, workload.Layered), 8, []int{2, 2, 3, 2}, 43},
		{"small-ep-stagger", workload.Small(workload.EP, 4, workload.Layered), 3, []int{1, 2, 2, 1}, 44},
	}
	var buf bytes.Buffer
	for _, c := range cases {
		s, err := GenerateStream(StreamConfig{Jobs: 6, Workload: c.wl, MeanInterarrival: c.gap},
			rand.New(rand.NewSource(c.seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Policy{NewGlobalGreedy(), NewFCFS(), NewSRPT(), NewBalancedMQB()} {
			res, err := Run(s, p, c.procs)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, p.Name(), err)
			}
			fmt.Fprintf(&buf, "%s %s makespan=%d completion=%v busy=%v\n",
				c.name, p.Name(), res.Makespan, res.Completion, res.BusyTime)
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
