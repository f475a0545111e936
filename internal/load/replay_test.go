package load

import (
	"bytes"
	"math/rand"
	"testing"

	"fhs/internal/service"
)

// TestReplay4000Fingerprint replays the trace `fhgen -arrivals 4000
// -seed 3` writes (fhgen's defaults: uniform gaps of mean 4, K=4, one
// tenant, rotating classes) the way `fhd -procs 4,4,4,4 -noaudit
// -replay` does, through the JSONL encoding, and pins the fingerprint.
// The queues run thousands of tasks deep here, so this is the test
// that sees a pick path whose cost or order depends on the backlog.
func TestReplay4000Fingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("4,000-job replay")
	}
	const seed = 3
	ops, err := Synthesize(TraceConfig{
		Shape: ShapeUniform, Jobs: 4000, MeanGap: 4, K: 4, SeedBase: seed, PriorityLevels: 1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := service.WriteTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	if ops, err = service.ReadTrace(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := service.Replay(service.Config{Procs: []int{4, 4, 4, 4}}, ops)
	if err != nil {
		t.Fatal(err)
	}
	const want = "7a8e29a39da719c1ce42cd5ec73ff58e950ce8b89f6e9f3b64910f6999345d1c"
	if res.Fingerprint != want {
		t.Fatalf("fingerprint %s, pinned %s", res.Fingerprint, want)
	}
}
