package analysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONRoundTrip pins the -json schema: findings marshal to an array
// of {file,line,col,analyzer,message} objects in the same stable order
// as the text output, and the wire form round-trips losslessly.
func TestJSONRoundTrip(t *testing.T) {
	pkgs := loadFixtures(t)
	pkg, ok := pkgs["fix.example/unitpkg"]
	if !ok {
		t.Fatal("fixture package fix.example/unitpkg not loaded")
	}
	findings := runFindings(fixtureCfg(), []*Package{pkg}, All())
	if len(findings) == 0 {
		t.Fatal("expected findings from the unitpkg fixture")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back []JSONFinding
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := ToJSONFindings(findings)
	if len(back) != len(want) {
		t.Fatalf("round-trip length = %d, want %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Errorf("finding %d: round-trip %+v != %+v", i, back[i], want[i])
		}
		if back[i].File != findings[i].Pos.Filename ||
			back[i].Line != findings[i].Pos.Line ||
			back[i].Col != findings[i].Pos.Column ||
			back[i].Analyzer != findings[i].Analyzer ||
			back[i].Message != findings[i].Message {
			t.Errorf("finding %d: wire form %+v does not match %v", i, back[i], findings[i])
		}
	}

	// Run dedupes identical findings, so the wire form must never carry
	// two identical (file,line,col,analyzer,message) objects.
	seen := map[JSONFinding]bool{}
	for _, f := range back {
		if seen[f] {
			t.Errorf("duplicate finding in -json output: %+v", f)
		}
		seen[f] = true
	}

	// Field names are the schema; a rename would break consumers.
	var raw []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("unmarshal raw: %v", err)
	}
	for _, key := range []string{"file", "line", "col", "analyzer", "message"} {
		if _, ok := raw[0][key]; !ok {
			t.Errorf("schema: first finding lacks key %q", key)
		}
	}
}

// TestJSONEmptyIsArray: a clean run must emit [] rather than null so
// downstream jq/CI consumers can always index the result.
func TestJSONEmptyIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty findings encode as %q, want []", got)
	}
}
