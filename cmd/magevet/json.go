package main

import (
	"encoding/json"
	"io"
)

// jsonDiag is the stable wire form of one finding, for -json output.
type jsonDiag struct {
	File  string `json:"file"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
	Check string `json:"check"`
	Msg   string `json:"msg"`
}

// writeJSON emits the findings as a JSON array (stable order: the
// caller sorts).
func writeJSON(w io.Writer, diags []diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{File: d.pos.Filename, Line: d.pos.Line, Col: d.pos.Column, Check: d.check, Msg: d.msg})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
