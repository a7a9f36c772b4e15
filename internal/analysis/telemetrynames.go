package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
)

// TelemetryNamesAnalyzer keeps the observability vocabulary closed and
// greppable. Every name handed to telemetry.GetCounter / GetGauge /
// GetHistogram / GetWindow and every kind handed to events.New must
//
//   - resolve statically: a string literal, a concatenation with a
//     literal prefix ("cache." + name + ".hits"), or a local variable
//     whose every assignment in the function is such a value,
//   - match ^[a-z0-9_.]+$ in its literal part, and
//   - be registered in the catalog (internal/analysis/catalog.go) —
//     exact names exactly, dynamic families by literal prefix.
//
// This is what keeps /metricsz names and the event-kind vocabulary
// (which CI smoke checks and jq pipelines key on) from drifting or
// colliding: adding a metric means a visible catalog diff, and a typo
// in an emit site fails the lint run instead of shipping a phantom
// name.
var TelemetryNamesAnalyzer = &Analyzer{
	Name: "telemetrynames",
	Doc:  "require literal, well-formed, cataloged telemetry metric and event names",
	Run:  runTelemetryNames,
}

var nameRe = regexp.MustCompile(`^[a-z0-9_.]+$`)

// metricFuncs and eventFuncs name the registration points, by
// module-relative defining package.
var metricFuncs = map[string]bool{
	"GetCounter": true, "GetGauge": true, "GetHistogram": true,
	"GetWindow": true, "GetWindowWithUnit": true,
}

const (
	telemetryPkgRel = "internal/telemetry"
	eventsPkgRel    = "internal/telemetry/events"
)

func runTelemetryNames(pass *Pass) {
	rel, _ := pass.Cfg.rel(pass.Pkg.Path)
	for _, exempt := range pass.Cfg.TelemetryExempt {
		if rel == exempt {
			return
		}
	}
	info := pass.Pkg.Info
	telemetryPkg := pass.Cfg.ModulePath + "/" + telemetryPkgRel
	eventsPkg := pass.Cfg.ModulePath + "/" + eventsPkgRel
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := funcFor(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			var kind string
			cat := pass.Cfg.Catalog
			var exact map[string]bool
			var prefixes []string
			switch {
			case fn.Pkg().Path() == telemetryPkg && metricFuncs[fn.Name()]:
				kind, exact, prefixes = "metric", cat.Metrics, cat.MetricPrefixes
			case fn.Pkg().Path() == eventsPkg && fn.Name() == "New":
				kind, exact, prefixes = "event", cat.Events, cat.EventPrefixes
			default:
				return true
			}
			checkName(pass, call, call.Args[0], kind, exact, prefixes)
			return true
		})
	}
}

// checkName validates one name argument against the catalog.
func checkName(pass *Pass, call *ast.CallExpr, arg ast.Expr, kind string, exact map[string]bool, prefixes []string) {
	lit, isPrefix, ok := resolveName(pass, arg)
	if !ok {
		pass.Reportf(arg.Pos(), "%s name must be a string literal (or a literal-prefixed concatenation); dynamic names cannot be audited against the catalog", kind)
		return
	}
	if !nameRe.MatchString(lit) {
		pass.Reportf(arg.Pos(), "%s name %q must match ^[a-z0-9_.]+$", kind, lit)
		return
	}
	if isPrefix {
		if !lookupPrefix(lit, prefixes) {
			pass.Reportf(arg.Pos(), "%s name family %q* is not registered in internal/analysis/catalog.go", kind, lit)
		}
		return
	}
	if !lookupExact(lit, exact, prefixes) {
		pass.Reportf(arg.Pos(), "%s name %q is not registered in internal/analysis/catalog.go", kind, lit)
	}
}

// resolveName statically resolves arg to a literal (isPrefix=false) or
// to the literal prefix of a concatenation (isPrefix=true). For a
// plain identifier it requires every assignment to that variable to be
// a string literal; the first is returned and the alternates are
// validated in place by resolveIdent.
func resolveName(pass *Pass, arg ast.Expr) (lit string, isPrefix, ok bool) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.BasicLit:
		if e.Kind.String() != "STRING" {
			return "", false, false
		}
		s, err := strconv.Unquote(e.Value)
		if err != nil {
			return "", false, false
		}
		return s, false, true
	case *ast.BinaryExpr:
		if e.Op.String() != "+" {
			return "", false, false
		}
		// Leftmost operand of the concatenation chain must be literal.
		left := ast.Unparen(e.X)
		for {
			if be, isBin := left.(*ast.BinaryExpr); isBin && be.Op.String() == "+" {
				left = ast.Unparen(be.X)
				continue
			}
			break
		}
		if bl, isLit := left.(*ast.BasicLit); isLit {
			s, err := strconv.Unquote(bl.Value)
			if err != nil {
				return "", false, false
			}
			return s, true, true
		}
		return "", false, false
	case *ast.Ident:
		return resolveIdent(pass, e)
	}
	return "", false, false
}

// resolveIdent handles the local-variable idiom
//
//	kind := "fault.injected"
//	if mode == Drop { kind = "drop.triggered" }
//	events.New(kind)
//
// by requiring every assignment to the variable in its declaring
// function to be a plain string literal; the first literal is returned
// for charset checking and ALL of them must be cataloged, which the
// caller verifies via the extra values in prefixAlts.
func resolveIdent(pass *Pass, id *ast.Ident) (string, bool, bool) {
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil {
		return "", false, false
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		// A typed constant still resolves exactly.
		if c, isConst := obj.(*types.Const); isConst && c.Val() != nil {
			s := c.Val().ExactString()
			if unq, err := strconv.Unquote(s); err == nil {
				return unq, false, true
			}
		}
		return "", false, false
	}
	// Collect every assignment to v in the file set.
	var lits []string
	complete := true
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				li, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				lobj := pass.Pkg.Info.Defs[li]
				if lobj == nil {
					lobj = pass.Pkg.Info.Uses[li]
				}
				if lobj != v || i >= len(as.Rhs) {
					continue
				}
				if bl, ok := ast.Unparen(as.Rhs[i]).(*ast.BasicLit); ok {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						lits = append(lits, s)
						continue
					}
				}
				complete = false
			}
			return true
		})
	}
	if !complete || len(lits) == 0 {
		return "", false, false
	}
	// Validate the alternates beyond the first here, so the caller's
	// single-value check covers the whole set.
	for _, alt := range lits[1:] {
		if !nameRe.MatchString(alt) {
			pass.Reportf(id.Pos(), "name %q (assigned to %s) must match ^[a-z0-9_.]+$", alt, id.Name)
		} else if !lookupExact(alt, pass.Cfg.Catalog.Events, pass.Cfg.Catalog.EventPrefixes) && !lookupExact(alt, pass.Cfg.Catalog.Metrics, pass.Cfg.Catalog.MetricPrefixes) {
			pass.Reportf(id.Pos(), "name %q (assigned to %s) is not registered in internal/analysis/catalog.go", alt, id.Name)
		}
	}
	return lits[0], false, true
}
