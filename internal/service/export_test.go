package service

import (
	"testing"

	"gpa/internal/store"
)

// What corpus_test.go, an external test package, reaches inside this
// one for. It is external because the Table 3 corpus (internal/kernels)
// imports this package through the root one, so no file of this
// package can import it.

// DecodeProfile, DecodeAdvice and DecodeMeasure are decodeStage for one
// stage.
func DecodeProfile(payload []byte, kernel string, profKey store.Key) (*Response, error) {
	return decodeStage(stProfile, payload, kernel, profKey)
}

func DecodeAdvice(payload []byte, kernel string, profKey store.Key) (*Response, error) {
	return decodeStage(stAdvice, payload, kernel, profKey)
}

func DecodeMeasure(payload []byte) (*Response, error) {
	return decodeStage(stMeasure, payload, "", store.Key{})
}

// StagePayloads runs reqs, advise requests, and a measure of each through
// one engine over a fresh store and returns the measure, profile and
// advice payloads each one's runs put, read back from the store.
func StagePayloads(tb testing.TB, reqs []*Request) (measures, profiles, advice [][]byte) {
	tb.Helper()
	var runs []*Request
	for _, r := range reqs {
		m := *r
		m.Kind = KindMeasure
		runs = append(runs, &m, r)
	}
	d := storeRuns(tb, runs...)
	for _, r := range reqs {
		p := storedPayloads(tb, d, r, stMeasure, stAdvice)
		measures, profiles, advice = append(measures, p[0]), append(profiles, p[1]), append(advice, p[2])
	}
	return measures, profiles, advice
}

// StageKey is r's key in the named stage.
func StageKey(tb testing.TB, r *Request, stage string) store.Key {
	tb.Helper()
	for s, name := range stageNames {
		if name == stage {
			return keysOf(tb, r)[s]
		}
	}
	tb.Fatalf("no stage %q", stage)
	return store.Key{}
}
