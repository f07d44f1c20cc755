package service

import (
	"testing"

	"gpa/internal/store"
)

// What corpus_test.go, an external test package, reaches inside this
// one for. It is external because the Table 3 corpus (internal/kernels)
// imports this package through the root one, so no file of this
// package can import it.
var ValidJSON = validJSON

// DecodeProfile and DecodeAdvice are decodeStage for one stage.
func DecodeProfile(payload []byte, kernel string, profKey store.Key) (*Response, error) {
	return decodeStage(stProfile, payload, kernel, profKey)
}

func DecodeAdvice(payload []byte, kernel string, profKey store.Key) (*Response, error) {
	return decodeStage(stAdvice, payload, kernel, profKey)
}

// StagePayloads runs reqs, advise requests, through one engine over a
// fresh store and returns the profile and advice payloads each one's
// run put, read back from the store.
func StagePayloads(tb testing.TB, reqs []*Request) (profiles, advice [][]byte) {
	tb.Helper()
	d := storeRuns(tb, reqs...)
	for _, r := range reqs {
		p := storedPayloads(tb, d, r, stProfile, stAdvice)
		profiles, advice = append(profiles, p[0]), append(advice, p[1])
	}
	return profiles, advice
}
