package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// AllowAudit keeps the suppression inventory honest: a
// //shahinvet:allow directive that suppresses nothing is itself a
// finding. Directives accrete — the code they excused gets fixed or
// deleted, the comment stays — and every stale allow both misleads
// readers about which invariant the line supposedly violates and
// widens the hole for a future, real finding to slip through.
//
// The audit runs after every other analyzer in the same invocation and
// reports:
//
//   - a directive naming an analyzer that ran but suppressed no
//     finding of that analyzer (stale);
//   - a directive naming an analyzer that does not exist (typo or
//     removed check);
//   - a shahinvet:allow comment that names no analyzers at all
//     (malformed — it suppresses nothing by construction).
//
// Analyzer names excluded from the invocation by -run are not audited
// for staleness: their findings were never computed, so "unused" would
// be meaningless. A deliberate exception can be kept with
// //shahinvet:allow allowaudit on the directive's own line, though the
// honest fix is deleting the stale directive.
var AllowAudit = &Analyzer{
	Name: "allowaudit",
	Doc:  "flag //shahinvet:allow directives that suppress nothing, name unknown analyzers, or are malformed",
}

// Run is attached in init: runAllowAudit consults All() for the known
// analyzer set, and a direct reference in the composite literal would
// form an initialization cycle (All lists AllowAudit).
func init() {
	AllowAudit.Run = runAllowAudit
}

func runAllowAudit(pass *Pass) {
	known := make(map[string]bool)
	for _, an := range All() {
		known[an.Name] = true
	}
	for _, f := range pass.Pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				auditDirective(pass, known, c.Pos(), c.Text)
			}
		}
	}
}

// auditDirective checks one comment; non-directives are ignored.
func auditDirective(pass *Pass, known map[string]bool, pos token.Pos, text string) {
	if !isDirectiveComment(text) {
		return
	}
	pass.InScope()
	names, ok := parseDirective(text)
	if !ok {
		pass.Reportf(pos, "shahinvet:allow directive names no analyzers and suppresses nothing; name the analyzers or delete it")
		return
	}
	position := pass.Pkg.Fset.Position(pos)
	file := pass.Pkg.relFile(position.Filename)
	for _, name := range sortedNames(names) {
		if !known[name] {
			pass.Reportf(pos, "shahinvet:allow names unknown analyzer %q; fix the name or delete it (have %s)", name, analyzerNames())
			continue
		}
		if name == "allowaudit" {
			continue // self-reference: the suppression mechanism itself
		}
		if !pass.ran[name] {
			continue // excluded by -run this invocation; staleness unknowable
		}
		if !pass.usage[directiveUse{file: file, line: position.Line, analyzer: name}] {
			pass.Reportf(pos, "shahinvet:allow %s suppresses no %s finding; the directive is stale — delete it", name, name)
		}
	}
}

// isDirectiveComment reports whether the comment is a shahinvet:allow
// directive, well-formed or not.
func isDirectiveComment(text string) bool {
	if !strings.HasPrefix(text, "//") {
		return false
	}
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(body, directivePrefix) {
		return false
	}
	rest := body[len(directivePrefix):]
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// sortedNames returns the directive's analyzer names in stable order.
func sortedNames(names map[string]bool) []string {
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
