package invariant_test

import (
	"testing"

	"mage/internal/experiments"
)

// TestShardCountByteIdentical is the digest matrix at every event-queue
// count the engine runs. Since the sharded queue was deleted for one
// (time, seq) heap (DESIGN.md §15) that is a single count, so the row has
// one column, shards=1: every registered experiment on the reference
// path against the golden pin the sharded engine's one-shard path
// rendered. It is the golden test's render, memoised, as it always was.
func TestShardCountByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped in -short mode")
	}
	t.Run("shards=1", func(t *testing.T) { checkGolden(t, experiments.Names(), sequential) })
}
