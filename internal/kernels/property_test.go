package kernels

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"gpa"
	"gpa/internal/advisor"
	"gpa/internal/arch"
)

// TestAdviceWithinAmdahlBounds states the estimators' contract (Eq. 2–5)
// as a property over every corpus variant on every bundled model: each
// advice entry's speedup is finite and at least 1, and a stall
// elimination or latency hiding entry, which at best removes its
// matched share Ratio of the samples, never promises more than Amdahl's
// 1/(1 − Ratio). The estimators compute T/(T − M) and the entry carries
// the rounded M/T, so the two sides may differ in their last bits: the
// bound allows a relative 1e-12 for that rounding and nothing more.
func TestAdviceWithinAmdahlBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("advises every variant on every model")
	}
	entries := 0
	for _, g := range arch.All() {
		ro := RunOptions{GPU: g, Seed: 11}
		for _, b := range All() {
			for _, v := range []*Variant{&b.Base, &b.Opt} {
				k, wl, err := v.Build()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := k.Advise(context.Background(), ro.options(wl))
				if err != nil {
					t.Fatalf("%s %s on %s: %v", b.ID(), k.Launch.Entry, arch.KeyOf(g), err)
				}
				for _, e := range rep.Advice.Entries {
					entries++
					if math.IsNaN(e.Speedup) || math.IsInf(e.Speedup, 0) || e.Speedup < 1 {
						t.Errorf("%s %s on %s, %s: speedup %v, want finite and >= 1",
							b.ID(), k.Launch.Entry, arch.KeyOf(g), e.Optimizer, e.Speedup)
					}
					if e.Category != advisor.CatStallElimination && e.Category != advisor.CatLatencyHiding {
						continue
					}
					if bound := 1 / (1 - e.Ratio); e.Ratio < 1 && e.Speedup > bound*(1+1e-12) {
						t.Errorf("%s %s on %s, %s: speedup %v exceeds 1/(1 - ratio %v) = %v",
							b.ID(), k.Launch.Entry, arch.KeyOf(g), e.Optimizer, e.Speedup, e.Ratio, bound)
					}
				}
			}
		}
	}
	if entries == 0 {
		t.Fatal("no advice entries: the property is vacuous")
	}
}

// TestAdviceInvariantUnderLabelRenaming: code labels only name branch
// targets and workload sites, and a report locates everything by PC and
// source line, so renaming every label of a variant — in its SASS and in
// its spec's sites, by one fixed bijection — must leave its advice
// entries and its report text byte-identical, on every corpus variant.
func TestAdviceInvariantUnderLabelRenaming(t *testing.T) {
	if testing.Short() {
		t.Skip("advises every variant twice")
	}
	ctx := context.Background()
	ro := RunOptions{GPU: arch.VoltaV100(), Seed: 11}
	advise := func(k *gpa.Kernel, wl gpa.Workload) (entries []byte, report string) {
		t.Helper()
		rep, err := k.Advise(ctx, ro.options(wl))
		if err != nil {
			t.Fatalf("%s: %v", k.Launch.Entry, err)
		}
		if entries, err = json.Marshal(rep.Advice.Entries); err != nil {
			t.Fatal(err)
		}
		return entries, rep.String()
	}
	renamed, advised := 0, 0
	for _, b := range All() {
		for _, v := range []*Variant{&b.Base, &b.Opt} {
			k, wl, err := v.Build()
			if err != nil {
				t.Fatal(err)
			}
			wantEntries, wantReport := advise(k, wl)

			asm, labels := renameLabels(v.Asm)
			renamed += len(labels)
			rk, err := gpa.LoadKernelAsm(asm, v.Launch)
			if err != nil {
				t.Fatalf("%s %s renamed: %v", b.ID(), k.Launch.Entry, err)
			}
			var rwl gpa.Workload
			if v.Spec != nil {
				spec := &gpa.WorkloadSpec{Trips: map[gpa.Site]gpa.TripFunc{}, Transactions: map[gpa.Site]int{}}
				rename := func(s gpa.Site) gpa.Site {
					if _, ok := labels[s.Label]; !ok {
						t.Fatalf("%s %s: spec site %q names no label of the SASS", b.ID(), k.Launch.Entry, s.Label)
					}
					return gpa.Site{Func: s.Func, Label: labels[s.Label]}
				}
				for s, f := range v.Spec.Trips {
					spec.Trips[rename(s)] = f
				}
				for s, n := range v.Spec.Transactions {
					spec.Transactions[rename(s)] = n
				}
				if rwl, err = rk.BindWorkload(spec); err != nil {
					t.Fatalf("%s %s renamed: %v", b.ID(), k.Launch.Entry, err)
				}
			}
			gotEntries, gotReport := advise(rk, rwl)
			if !bytes.Equal(gotEntries, wantEntries) {
				t.Errorf("%s %s: advice entries differ after renaming labels\n got: %.300s\nwant: %.300s",
					b.ID(), k.Launch.Entry, gotEntries, wantEntries)
			}
			if gotReport != wantReport {
				t.Errorf("%s %s: report differs after renaming labels\n got: %.300s\nwant: %.300s",
					b.ID(), k.Launch.Entry, gotReport, wantReport)
			}
			if len(wantEntries) > len("null") {
				advised++
			}
		}
	}
	if renamed == 0 || advised == 0 {
		t.Fatalf("%d labels renamed, %d variants advised: the property is vacuous", renamed, advised)
	}
}

// renameLabels renames every code label that src defines, wherever the
// label appears as a whole word, to "Q" and the first 12 hex digits of
// the SHA-256 of its name, and returns the renamed source and the map it
// applied. A word is a run of identifier characters and dots, so a
// label's name inside a number, a file name or a register is left alone.
func renameLabels(src string) (string, map[string]string) {
	labels := map[string]string{}
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		for {
			i := strings.Index(s, ":")
			if i < 0 || !labelName.MatchString(s[:i]) {
				break
			}
			sum := sha256.Sum256([]byte(s[:i]))
			labels[s[:i]] = "Q" + hex.EncodeToString(sum[:6])
			s = strings.TrimSpace(s[i+1:])
		}
	}
	return word.ReplaceAllStringFunc(src, func(w string) string {
		if to, ok := labels[w]; ok {
			return to
		}
		return w
	}), labels
}

var (
	labelName = regexp.MustCompile(`^[A-Za-z_$][A-Za-z0-9_$]*$`)
	word      = regexp.MustCompile(`[A-Za-z0-9_$.]+`)
)
