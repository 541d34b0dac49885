package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestCampaignNoiseOptionThreads runs an attack-backed campaign task
// under the noise option and checks (a) the single-valued option's two
// spellings, "" and "counter", give identical outcomes, and (b) the
// campaign stays bit-identical across worker counts — the
// "embarrassingly parallel per-query noise" property the counter
// contract promises.
func TestCampaignNoiseOptionThreads(t *testing.T) {
	run := func(noise string, workers int) *campaign.Result {
		res, err := campaign.Run(context.Background(), campaign.Spec{
			Task: "seqpair-attack", BaseSeed: 77, Seeds: 3, Workers: workers,
			Options: campaign.Options{Noise: noise},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	counterSerial := run("counter", 1)
	if !reflect.DeepEqual(counterSerial.Outcomes, run("counter", 4).Outcomes) {
		t.Fatal("counter-mode campaign diverges across worker counts")
	}
	if !reflect.DeepEqual(counterSerial.Outcomes, run("", 1).Outcomes) {
		t.Fatal("empty noise option does not run the counter model")
	}
}

// TestCampaignNoiseOptionRejectsUnknown pins the error paths of the
// noise option on every attack-backed task: a typo'd model name, and
// the removed stream model — refused before any device is enrolled, so
// an old spec cannot silently run under different noise.
func TestCampaignNoiseOptionRejectsUnknown(t *testing.T) {
	tasks := []string{"attack-success", "seqpair-attack", "tempco-attack", "groupbased-attack", "masking-attack", "chain-attack"}
	for _, task := range tasks {
		for noise, want := range map[string]string{
			"quantum": "unknown noise model",
			"stream":  "stream noise model was removed",
		} {
			_, err := campaign.Run(context.Background(), campaign.Spec{
				Task: task, BaseSeed: 1, Seeds: 1,
				Options: campaign.Options{Noise: noise},
			})
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s noise=%q: err = %v, want %q", task, noise, err, want)
			}
		}
	}
}

// TestRunAttacksCounterRecover is the end-to-end counter-mode soundness
// check across all five attacks on one device population: one
// attack-success task instance.
func TestRunAttacksCounterRecover(t *testing.T) {
	task, _ := campaign.Lookup("attack-success")
	m, err := task.Run(context.Background(), 3, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range task.Binary {
		if m[metric] != 1 {
			t.Fatalf("counter-mode recovery failed: %v", m)
		}
	}
	if m["tempco-relation-accuracy"] != 1 {
		t.Fatalf("counter-mode tempco relations: %v", m)
	}
}
