package bench

import "testing"

// TestVectorizedShape is the acceptance gate of batch execution: every
// record that reaches evaluation must go through a batch, and warm session
// rounds must skip the filter column's decode entirely — DecodeSaved equal to
// the full record count, every round after the warm-up.
func TestVectorizedShape(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.02
	}
	res, err := Vectorized(testCfg(scale))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 12 {
		t.Fatalf("got %d cells, want 12 (4 layouts x 3 arms)", len(res.Cells))
	}

	for _, c := range res.Cells {
		ctx := c.Layout + "/" + c.Arm
		if c.Matches <= 0 || c.Matches >= res.Records {
			t.Errorf("%s: %d of %d records matched — the arm is degenerate", ctx, c.Matches, res.Records)
		}
		// The filter column is unprunable by construction: every record is
		// batch-evaluated, in at least one batch per split-directory.
		if c.RowsVectorized != res.Records {
			t.Errorf("%s: vectorized %d rows, want all %d", ctx, c.RowsVectorized, res.Records)
		}
		if c.VecBatches <= 0 {
			t.Errorf("%s: no batches built", ctx)
		}

		// Warm rounds: round 1 faces an empty cache; every later round
		// serves the filter column's every vector from it — one hit per
		// batch, the whole dataset's decode saved, and cheaper than cold.
		if len(c.Warm) != res.Rounds {
			t.Fatalf("%s: %d warm rounds recorded, want %d", ctx, len(c.Warm), res.Rounds)
		}
		if r1 := c.Warm[0]; r1.VecCacheHits != 0 || r1.DecodeSaved != 0 {
			t.Errorf("%s: warm-up round hit an empty cache (%d hits, %d saved)",
				ctx, r1.VecCacheHits, r1.DecodeSaved)
		}
		for i, r := range c.Warm[1:] {
			if r.DecodeSaved != res.Records {
				t.Errorf("%s: warm round %d saved %d decoded values, want all %d",
					ctx, i+2, r.DecodeSaved, res.Records)
			}
			if r.VecCacheHits != c.VecBatches {
				t.Errorf("%s: warm round %d served %d batches from cache, want %d",
					ctx, i+2, r.VecCacheHits, c.VecBatches)
			}
			if r.CPU >= c.VectorCPU {
				t.Errorf("%s: warm round %d CPU %.5fs not below cold %.5fs",
					ctx, i+2, r.CPU, c.VectorCPU)
			}
		}
	}
}
