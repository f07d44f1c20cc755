package main

import (
	"path/filepath"
	"testing"
)

func TestScanEnvelopeIndentedAndCompact(t *testing.T) {
	indented := []byte("{\n  \"schemaVersion\": \"gpa-result/2\",\n  \"cached\": true,\n  \"cycles\": 17682,\n" +
		"  \"elapsedMs\": 16.13,\n  \"profileDigest\": \"a38a6f08\",\n  \"advice\": [{\"suggestion\": \"say \\\"cycles\\\": 1\"}],\n" +
		"  \"report\": \"line \\\"one\\\"\\nline two\"\n}\n")
	compact := []byte(`{"schemaVersion":"gpa-result/2","cached":true,"cycles":17682,"elapsedMs":16.13,` +
		`"profileDigest":"a38a6f08","advice":[{"suggestion":"say \"cycles\": 1"}],"report":"line \"one\"\nline two"}`)
	a, err := scanEnvelope(indented)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scanEnvelope(compact)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("indented and compact encodings scan differently:\n%+v\n%+v", a, b)
	}
	if a.cycles != 17682 || !a.cached || a.elapsedMs != 16.13 || a.digest != "a38a6f08" || !a.hasReport {
		t.Errorf("envelope = %+v", a)
	}
	if _, err := scanEnvelope([]byte(`{"error":{"code":"bad_request"}}`)); err == nil {
		t.Errorf("an error body scanned as a result")
	}
}

func TestLoadPinsReadsDriftFile(t *testing.T) {
	pins, err := loadPins(filepath.Join("..", "DRIFT.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range loadCorpus().rows {
		p, ok := pins[b.ID()]
		if !ok || p.cycles <= 0 || len(p.digest) != 16 {
			t.Errorf("row %q: pin %+v, present %v", b.ID(), p, ok)
		}
	}
	p := pin{cycles: 10, digest: "abcd"}
	if err := p.matches(10, "abcdef"); err != nil {
		t.Errorf("matching pin rejected: %v", err)
	}
	if p.matches(11, "abcdef") == nil || p.matches(10, "abxdef") == nil {
		t.Errorf("mismatching pin accepted")
	}
}
