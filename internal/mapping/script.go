package mapping

import (
	"fmt"
	"strings"

	"webrev/internal/dom"
	"webrev/internal/dtd"
)

// OpKind identifies one edit operation applied during conformance mapping.
type OpKind int

// Edit operation kinds.
const (
	OpRename OpKind = iota
	OpInsert
	OpDelete
	OpMerge
	OpReorder
	OpUnwrap
)

func (k OpKind) String() string {
	switch k {
	case OpRename:
		return "rename"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpMerge:
		return "merge"
	case OpReorder:
		return "reorder"
	case OpUnwrap:
		return "unwrap"
	}
	return "?"
}

// Op is one recorded edit operation.
type Op struct {
	Kind   OpKind
	Path   string // element path at which the operation applied
	Detail string // human-readable specifics
}

func (o Op) String() string {
	return fmt.Sprintf("%s %s: %s", o.Kind, o.Path, o.Detail)
}

// Script is the ordered list of operations a conformance mapping performed.
type Script []Op

// String renders the script one operation per line.
func (s Script) String() string {
	var b strings.Builder
	for _, op := range s {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Stats summarizes the script as EditStats.
func (s Script) Stats() EditStats {
	var st EditStats
	for _, op := range s {
		if c := st.count(op.Kind); c != nil {
			*c++
		}
	}
	return st
}

// ConformScript is Conform with full operation recording: it returns the
// conformed copy and the edit script that produced it, recorded by the
// same walker Conform runs. Conform remains the cheaper entry point when
// only counts are needed.
func ConformScript(doc *dom.Node, d *dtd.DTD) (*dom.Node, Script) {
	var script Script
	out, _ := conform(doc, d, &edits{script: &script})
	return out, script
}
