package campaign

import (
	"context"
	"encoding/json"
)

// The campaign goldens under testdata/campaigns/ pin every registered
// task at one campaign cell: goldenSeeds instances from goldenBaseSeed.
const (
	goldenBaseSeed = 1
	goldenSeeds    = 8
)

// Golden runs task's golden campaign on workers goroutines and renders
// it in the canonical golden-file encoding: the Result's outcomes and
// aggregates as indented JSON with a trailing newline. The worker count
// is left out, so the bytes are the same for any workers value; that
// is what the golden test checks at two of them. Both the root test's
// -update flag and `puf-bench -golden` write exactly these bytes.
func Golden(ctx context.Context, task string, workers int) ([]byte, error) {
	res, err := Run(ctx, Spec{Task: task, BaseSeed: goldenBaseSeed, Seeds: goldenSeeds, Workers: workers})
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(struct {
		Task       string      `json:"task"`
		BaseSeed   uint64      `json:"base_seed"`
		Seeds      int         `json:"seeds"`
		Outcomes   []Outcome   `json:"outcomes"`
		Aggregates []Aggregate `json:"aggregates"`
	}{res.Task, res.BaseSeed, res.Seeds, res.Outcomes, res.Aggregates}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
