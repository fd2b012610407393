package analysis

import (
	"bytes"
	"encoding/json"

	"repro/internal/ir"
)

// The analyze report: a stable JSON rendering of the whole-program
// facts for tooling. Everything is emitted in module order (functions,
// classes, instruction order within a function), never map order, so
// the bytes are identical for identical inputs — the same determinism
// contract the compiled output has.

type reportFunc struct {
	Name         string         `json:"name"`
	Kind         string         `json:"kind"`
	Blocks       int            `json:"blocks"`
	Instrs       int            `json:"instrs"`
	Reachable    bool           `json:"reachable"`
	InCycle      bool           `json:"in_cycle"`
	HasLoop      bool           `json:"has_loop"`
	Effects      []string       `json:"effects"`
	Pure         bool           `json:"pure"`
	ParamEscapes []bool         `json:"param_escapes"`
	Allocs       []reportAlloc  `json:"allocs"`
	Intervals    reportInterval `json:"intervals"`
	Callees      []string       `json:"callees"`
	Unresolved   int            `json:"unresolved_sites"`
}

type reportAlloc struct {
	Op      string `json:"op"`
	Pos     string `json:"pos"`
	Escapes bool   `json:"escapes"`
	Stack   bool   `json:"stack"`
}

type reportInterval struct {
	Consts  int `json:"consts"`
	Bounded int `json:"bounded"`
	Total   int `json:"total"`
}

type reportSummary struct {
	Functions       int `json:"functions"`
	Reachable       int `json:"reachable"`
	Instantiated    int `json:"instantiated_classes"`
	ResolvedSites   int `json:"resolved_sites"`
	UnresolvedSites int `json:"unresolved_sites"`
	Allocs          int `json:"allocs"`
	NonEscaping     int `json:"non_escaping"`
	StackPromoted   int `json:"stack_promoted"`
	PureFunctions   int `json:"pure_functions"`
}

type report struct {
	Functions    []reportFunc  `json:"functions"`
	Instantiated []string      `json:"instantiated_classes"`
	Summary      reportSummary `json:"summary"`
}

func kindName(k ir.FuncKind) string {
	switch k {
	case ir.KindTopLevel:
		return "toplevel"
	case ir.KindMethod:
		return "method"
	case ir.KindCtor:
		return "ctor"
	case ir.KindAlloc:
		return "alloc"
	case ir.KindWrapper:
		return "wrapper"
	case ir.KindInit:
		return "init"
	}
	return "unknown"
}

// ReportJSON renders res as indented JSON with a trailing newline.
func ReportJSON(res *Result) ([]byte, error) {
	rep := report{Functions: make([]reportFunc, 0, len(res.Mod.Funcs))}
	for i, f := range res.Mod.Funcs {
		facts := res.Funcs[i]
		node := res.CallGraph.Nodes[i]
		rf := reportFunc{
			Name:         f.Name,
			Kind:         kindName(f.Kind),
			Blocks:       len(f.Blocks),
			Instrs:       f.NumInstrs(),
			Reachable:    res.CallGraph.Reachable[f],
			InCycle:      node.InCycle,
			Effects:      facts.Effects.Names(),
			Pure:         facts.Effects.Pure(),
			ParamEscapes: facts.ParamEscapes,
			Allocs:       []reportAlloc{},
			Intervals:    reportInterval(SummarizeIntervals(facts.Intervals)),
			Callees:      []string{},
			Unresolved:   node.Unresolved,
		}
		if rf.ParamEscapes == nil {
			rf.ParamEscapes = []bool{}
		}
		for _, b := range facts.CFG.InLoop {
			if b {
				rf.HasLoop = true
			}
		}
		for _, site := range facts.AllocSites {
			rf.Allocs = append(rf.Allocs, reportAlloc{
				Op:      site.Instr.Op.String(),
				Pos:     site.Instr.Pos.String(),
				Escapes: site.Escapes,
				Stack:   site.Instr.StackAlloc,
			})
			rep.Summary.Allocs++
			if !site.Escapes {
				rep.Summary.NonEscaping++
			}
			if site.Instr.StackAlloc {
				rep.Summary.StackPromoted++
			}
		}
		for _, c := range node.Callees {
			rf.Callees = append(rf.Callees, c.Name)
		}
		for _, ts := range node.Sites {
			if ts != nil {
				rep.Summary.ResolvedSites++
			}
		}
		rep.Summary.UnresolvedSites += node.Unresolved
		if rf.Pure {
			rep.Summary.PureFunctions++
		}
		if rf.Reachable {
			rep.Summary.Reachable++
		}
		rep.Functions = append(rep.Functions, rf)
	}
	rep.Summary.Functions = len(res.Mod.Funcs)
	rep.Instantiated = []string{}
	for _, c := range res.Mod.Classes {
		if res.CallGraph.Instantiated[c] {
			rep.Instantiated = append(rep.Instantiated, c.Name)
		}
	}
	rep.Summary.Instantiated = len(rep.Instantiated)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
