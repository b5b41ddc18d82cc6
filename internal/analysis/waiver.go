package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// waiverOwner maps each waiver marker to the analyzer whose diagnostics
// it may suppress. emcgm:coldpath is deliberately absent: it is a path
// classification consumed by several rules (steady-state exemption), not
// a one-diagnostic waiver, so it cannot "rot" the same way.
var waiverOwner = map[string]string{
	"emcgm:orderok":  "detorder",
	"emcgm:iopureok": "iopurity",
}

// WaiverNodes maps each AST node whose associated comments (per
// ast.NewCommentMap) carry the waiver marker to the position of the
// comment itself. Analyzers suppress a diagnostic when a waived node is
// on the report's ancestor stack — and must then call Pass.UseWaiver
// with the recorded position, so the driver's unused-waiver check can
// tell working waivers from rotten ones.
func WaiverNodes(fset *token.FileSet, f *ast.File, marker string) map[ast.Node]token.Pos {
	out := map[ast.Node]token.Pos{}
	cm := ast.NewCommentMap(fset, f, f.Comments)
	for node, groups := range cm {
		for _, g := range groups {
			if pos, ok := groupMarkerPos(g, marker); ok {
				out[node] = pos
			}
		}
	}
	return out
}

// groupMarkerPos locates the first comment of the group declaring the
// marker.
func groupMarkerPos(g *ast.CommentGroup, marker string) (token.Pos, bool) {
	if g == nil {
		return token.NoPos, false
	}
	for _, c := range g.List {
		if f, ok := commentFirstWord(c); ok && f == marker {
			return c.Pos(), true
		}
	}
	return token.NoPos, false
}

// commentFirstWord returns the first word of the comment's text. A
// waiver must BE the comment, not appear in it: only a marker in first
// position declares anything, so prose that mentions a marker —
// analyzer documentation, design notes — is inert.
func commentFirstWord(c *ast.Comment) (string, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

// CheckUnusedWaivers reports, under the analyzer name "unusedwaiver",
// every waiver comment in files that suppressed no diagnostic of its
// owning analyzer during this run. Only waivers owned by an analyzer in
// ran are considered: a single-analyzer invocation must not condemn the
// other analyzers' waivers unheard. used is the union of positions the
// passes recorded through Pass.UseWaiver.
func CheckUnusedWaivers(files []*ast.File, ran map[string]bool, used map[token.Pos]bool, report func(Diagnostic)) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if used[c.Pos()] {
					continue
				}
				base, ok := commentFirstWord(c)
				if !ok {
					continue
				}
				owner, ok := waiverOwner[base]
				if !ok || !ran[owner] {
					continue
				}
				report(Diagnostic{
					Pos:      c.Pos(),
					Analyzer: "unusedwaiver",
					Message:  base + " waiver suppresses no " + owner + " diagnostic; remove it",
				})
			}
		}
	}
}
