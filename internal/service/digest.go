package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"gpa/internal/arch"
	"gpa/internal/cubin"
	"gpa/internal/store"
)

// digestSchema versions the key layout: bump it whenever the set or
// order of key fields changes, so stale keys from older layouts can
// never alias a new request (the on-disk store is rooted under it, so a
// bump starts cold by construction). Layout /4 dropped the module
// front-end's label, so the module enters at measure; /3 made every key a
// prefix of one field list and the request's result key its terminal
// stage's key; /2 had replaced the inline module bytes and GPU-model
// JSON with their SHA-256 digests.
const digestSchema = "gpa-service-key/4"

// stageID indexes the Figure 2 pipeline's stages in dependency order.
type stageID int

const (
	stMeasure stageID = iota
	stProfile
	stAdvice
	numStages
	// noStage is what a stage that depends on no other needs.
	noStage stageID = -1
)

// stageNames are the stages' names in the artifact store.
var stageNames = [numStages]string{store.StageMeasure, store.StageProfile, store.StageAdvice}

// stageKeys holds one request's content-addressed key per stage.
type stageKeys [numStages]store.Key

// keyMaterial is a request's canonical key material: every
// result-affecting field as a labeled, length-prefixed value, written
// exactly once, in the order the pipeline consumes them, with a stage's
// label closing the fields that stage is the first to read. A stage's
// key is the SHA-256 of the list up to and including its label, so a
// field can only ever change the keys at and downstream of where it
// enters:
//
//	schema, module, launch, arch model,
//	sim options, workload                        measure: cycles
//	sample period                                profile: sampled profile
//	blamer options                               advice: ranked advice, report
//
// Kind writes nothing: it selects which stage is terminal, and the
// request's result key — Request.Digest, Response.Key, the singleflight
// key — is that stage's key. A profile request and an advise request
// over the same inputs therefore share one profile artifact.
// Parallelism is excluded because results are bit-identical at every
// level; the other excluded fields are transport metadata.
// TestStageKeysFactorThePipeline holds the audited list and checks every
// field against it.
type keyMaterial struct {
	fields   []byte
	cut      [numStages]int // cut[s]: where stage s's label ends
	terminal stageID
}

// closeStage appends stage s's label to the list b and marks the cut.
func (km *keyMaterial) closeStage(b []byte, s stageID) []byte {
	b = appendBytes(b, "stage", stageNames[s])
	km.cut[s] = len(b)
	return b
}

// key hashes the list up to and including stage s's label.
func (km *keyMaterial) key(s stageID) store.Key {
	return sha256.Sum256(km.fields[:km.cut[s]])
}

// keys derives every stage's key.
func (km *keyMaterial) keys() (sk stageKeys) {
	for s := range sk {
		sk[s] = km.key(stageID(s))
	}
	return sk
}

// keyBuf is the caller's buffer behind keyMaterial.fields: on its stack,
// and large enough unless a name is unusually long.
type keyBuf [1024]byte

// packModule is cubin.Pack; a variable so a test can count the calls.
var packModule = cubin.Pack

// keyMaterial derives r's key material, appending the fields to buf
// (pass keyBuf[:0]). cacheable=false marks a request with no stable
// identity — a Workload (an opaque callback) without a WorkloadKey —
// which bypasses the store and singleflight.
// The two variable-size inputs, the module and the GPU model table,
// enter by their own cached digests (Request.ModuleHash and a memo
// keyed by the model's value), so a warm engine never re-encodes either.
func (r *Request) keyMaterial(buf []byte) (km keyMaterial, cacheable bool, err error) {
	if r.Workload != nil && r.WorkloadKey == "" {
		return km, false, nil
	}
	mh := r.ModuleHash
	if mh == ([32]byte{}) {
		blob, err := packModule(r.Module)
		if err != nil {
			return km, false, fmt.Errorf("service: digest: %w", err)
		}
		mh = sha256.Sum256(blob)
	}
	n := r.normalized()
	// The GPU model is digested by its full constant table, not just
	// its key: a caller's mutated model with the same SM flag must
	// never alias a bundled model's cached results. arch.GPU is
	// plain scalar data, so its JSON encoding is canonical.
	gh, err := gpuModelHash(n.GPU)
	if err != nil {
		return km, false, err
	}
	b := appendBytes(buf, "schema", stageSchema)
	b = appendBytes(b, "module", mh[:])
	b = appendBytes(b, "entry", n.Launch.Entry)
	b = appendI64(b, "gridX", int64(n.Launch.Grid.X))
	b = appendI64(b, "gridY", int64(n.Launch.Grid.Y))
	b = appendI64(b, "gridZ", int64(n.Launch.Grid.Z))
	b = appendI64(b, "blockX", int64(n.Launch.Block.X))
	b = appendI64(b, "blockY", int64(n.Launch.Block.Y))
	b = appendI64(b, "blockZ", int64(n.Launch.Block.Z))
	b = appendI64(b, "regs", int64(n.Launch.RegsPerThread))
	b = appendI64(b, "shared", int64(n.Launch.SharedMemPerBlock))
	b = appendBytes(b, "gpu", arch.KeyOf(n.GPU))
	b = appendBytes(b, "gpuModel", gh[:])
	b = appendI64(b, "simSMs", int64(n.SimSMs))
	b = appendI64(b, "seed", int64(n.Seed))
	b = appendBytes(b, "workload", n.WorkloadKey)
	b = km.closeStage(b, stMeasure)
	b = appendI64(b, "period", int64(n.SamplePeriod))
	b = km.closeStage(b, stProfile)
	b = appendBool(b, "noOpcodePrune", n.Blamer.DisableOpcodePrune)
	b = appendBool(b, "noDominatorPrune", n.Blamer.DisableDominatorPrune)
	b = appendBool(b, "noLatencyPrune", n.Blamer.DisableLatencyPrune)
	b = appendBool(b, "noIssueWeight", n.Blamer.DisableIssueWeight)
	b = appendBool(b, "noPathWeight", n.Blamer.DisablePathWeight)
	b = appendI64(b, "maxSliceSteps", int64(n.Blamer.MaxSliceSteps))
	km.fields, km.terminal = km.closeStage(b, stAdvice), stageOf(n.Kind)
	return km, true, nil
}

// Digest returns the request's content-addressed result key in hex: the
// key of the stage its Kind makes terminal (see keyMaterial). A request
// carrying a Workload without a WorkloadKey has no stable identity;
// Digest returns "" and the engine bypasses the store and singleflight
// for it.
func (r *Request) Digest() (string, error) {
	var buf keyBuf
	km, cacheable, err := r.keyMaterial(buf[:0])
	if err != nil || !cacheable {
		return "", err
	}
	key := km.key(km.terminal)
	return hex.EncodeToString(key[:]), nil
}

// gpuHashes memoizes the SHA-256 of each GPU model's JSON encoding,
// keyed by the model's value: arch.GPU is plain comparable data, so a
// model changed after its first use is another key, and equal models
// share one entry whoever minted them. The size cap keeps a caller that
// varies a model per request from growing it without bound.
var gpuHashes struct {
	sync.RWMutex
	m map[arch.GPU][32]byte
}

const gpuHashCap = 4096

func gpuModelHash(g *arch.GPU) ([32]byte, error) {
	gpuHashes.RLock()
	h, ok := gpuHashes.m[*g]
	gpuHashes.RUnlock()
	if ok {
		return h, nil
	}
	data, err := json.Marshal(g)
	if err != nil {
		return [32]byte{}, fmt.Errorf("service: digest: %w", err)
	}
	h = sha256.Sum256(data)
	gpuHashes.Lock()
	if gpuHashes.m == nil || len(gpuHashes.m) >= gpuHashCap {
		gpuHashes.m = make(map[arch.GPU][32]byte, 16)
	}
	gpuHashes.m[*g] = h
	gpuHashes.Unlock()
	return h, nil
}

// appendBytes writes a labeled, length-prefixed field so adjacent
// values can never collide by concatenation.
func appendBytes[T ~string | ~[]byte](b []byte, label string, v T) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(label)))
	b = append(b, label...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
	return append(b, v...)
}

func appendI64(b []byte, label string, v int64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return appendBytes(b, label, buf[:])
}

func appendBool(b []byte, label string, v bool) []byte {
	if v {
		return appendI64(b, label, 1)
	}
	return appendI64(b, label, 0)
}
