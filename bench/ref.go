package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The reference server is what makes the timed metrics repeatable on a
// shared box. Wall-clock latency of one commit drifts here by 20-40%
// over minutes (the hypervisor's other guests), far more than any bound
// a metric may carry, and it drifts for every program alike: a fixed
// HTTP server driven by the same callers over the same connections slows
// down and speeds up with gpad. So every timed slice alternates short
// work windows against gpad with reference windows against this server,
// and lat_p50_rel and lat_mean_rel are gpad's latency divided by the
// reference's latency in the neighbouring windows.
//
// The reference is frozen. It is made of the standard library only, no
// code of the repository runs in it, and a change to this file re-bases
// every relative metric: that is a change of the benchmark, never part
// of a change that claims a gain.
const (
	refPath = "/ref"
	// refWindowLen is the length of one reference window (some two
	// hundred reference requests).
	refWindowLen = 100 * time.Millisecond
	// refEncodes is how often the reference server encodes its document
	// per request. It sets the blend of computing and waking up in a
	// reference request. With one encode (0.07 ms of 0.25 ms) the
	// reference was mostly system calls and wake-ups and slowed down more
	// than gpad whenever the box did: the relative latencies fell with the
	// speed of the box (log-log slopes over forty rounds each of -0.11 on
	// warm_bench to -0.25 on cold_bench). With eight (two thirds of
	// 0.9 ms) the warm loops' slopes are within 0.06 of zero; a simulation
	// still slows down less than any JSON-encoding server does.
	refEncodes = 8
)

// refBody is the request every reference call sends.
var refBody = []byte(`{"bench":"reference","simSMs":4,"seed":11}`)

// refItem is one entry of the reference document.
type refItem struct {
	Name   string   `json:"name"`
	Score  float64  `json:"score"`
	Counts []int    `json:"counts"`
	Notes  []string `json:"notes"`
}

type refDoc struct {
	Title string    `json:"title"`
	Items []refItem `json:"items"`
}

// refDocument is the fixed value the reference server encodes on every
// request: about as many bytes of indented JSON as an advise response.
func refDocument() *refDoc {
	items := make([]refItem, 40)
	for i := range items {
		items[i] = refItem{Name: fmt.Sprintf("item-%02d", i), Score: float64(i) * 1.25,
			Counts: []int{i, i + 1, i + 2, i + 3, i + 4, i + 5, i + 6, i + 7},
			Notes:  []string{"the quick brown fox jumps over the lazy dog", "pack my box with five dozen liquor jugs"}}
	}
	return &refDoc{Title: "reference", Items: items}
}

// refDocLen is the length of a reference response; doRef checks it.
var refDocLen = len(encodeRef(refDocument()))

func encodeRef(doc *refDoc) []byte {
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // only plain structs of strings and numbers are marshalled
	}
	return out
}

// serveRef is the reference server's main: it decodes each request body,
// encodes the fixed document refEncodes times and writes the last
// encoding, the way a warm gpad request decodes, renders and encodes. /healthz answers 200 so the
// benchmark can wait for it like it waits for gpad.
func serveRef(addr string) error {
	doc := refDocument()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc(refPath, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var in map[string]any
		if err == nil {
			err = json.Unmarshal(body, &in)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var out []byte
		for range refEncodes {
			out = encodeRef(doc)
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out) // a failed write shows at the client as a short body
	})
	return http.ListenAndServe(addr, mux)
}
