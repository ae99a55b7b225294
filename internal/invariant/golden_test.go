package invariant_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mage/internal/experiments"
)

// updateGolden regenerates testdata/golden_digests.json from the current
// tree. Run it only when an output change is intended and reviewed:
//
//	go test -run TestWrapperMatchesGolden -update-golden ./internal/invariant/
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from the current tree")

const goldenPath = "testdata/golden_digests.json"

// readGolden loads the pinned experiment→digest map.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	out := make(map[string]string)
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("corrupt golden file %s: %v", goldenPath, err)
	}
	return out
}

// TestWrapperMatchesGolden pins every registered experiment's rendered
// output (text + CSV, hashed) to the digests captured before the
// Node/Tenant split of internal/core. Every refactor of how a node is
// built and run must keep them: if any experiment's bytes drift, the
// refactor leaked into observable behaviour. The digests were captured on
// linux/amd64 (the CI platform); the simulation itself is deterministic,
// so a mismatch means a code change, not environment noise. It is the
// digest matrix's sequential column (determinism_test.go).
func TestWrapperMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped in -short mode")
	}
	if *updateGolden {
		got := make(map[string]string)
		for _, id := range experiments.Names() {
			got[id] = render(t, id, sequential)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}

	// Every registered experiment must be pinned — a new experiment lands
	// together with its digest; checkGolden fails one that is not.
	checkGolden(t, experiments.Names(), sequential)
}
