package analysis

import (
	"encoding/json"
	"io"
)

// JSONFinding is the machine-readable form of a Finding, the schema of
// knl-lint -json: an array of {file,line,col,analyzer,message} objects in
// the same stable order the text output uses.
type JSONFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// ToJSONFindings converts findings (already position-sorted by RunTimed) to
// their wire form. It never returns nil, so an empty run marshals as []
// rather than null.
func ToJSONFindings(findings []Finding) []JSONFinding {
	out := make([]JSONFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, JSONFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	return out
}

// WriteJSON writes the findings as an indented JSON array.
func WriteJSON(w io.Writer, findings []Finding) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ToJSONFindings(findings))
}
