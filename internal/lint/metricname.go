package lint

import (
	"go/ast"
	"go/constant"
	"strings"

	"intervaljoin/internal/obs/live"
)

// MetricName enforces literal, valid registrations against the live
// telemetry registry. A metric whose name is computed at runtime can't be
// grepped, alerted on, or documented; one that fails Prometheus name
// rules, or skips the module's ij_ namespace, silently corrupts the
// /metrics exposition or collides with someone else's series; and a
// series without help text is unreadable at the scrape. The registry
// itself panics on invalid names — but only on the code path that
// registers, which may be a rarely-exercised flag combination, so the
// rule is enforced statically: every live.Registry registration call
// must pass a constant ij_-prefixed name that live.ValidName accepts,
// constant non-empty help, and (for vectors) constant valid label names.
// The validation calls live.ValidName/ValidLabel directly, so the lint
// can never drift from what the registry accepts at run time.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc: "live.Registry registrations must use constant, valid, ij_-prefixed " +
		"Prometheus metric names with constant help text and constant valid " +
		"label names",
	Run: runMetricName,
}

// registryMethods maps each registration method to whether its trailing
// arguments are label names (the Vec constructors).
var registryMethods = map[string]bool{
	"Counter":    false,
	"Gauge":      false,
	"FloatGauge": false,
	"Hist":       false,
	"Latency":    false,
	"CounterVec": true,
	"GaugeVec":   true,
	"LatencyVec": true,
}

func runMetricName(pass *Pass) {
	// The registry's own package (and its fixtures) exercises invalid
	// names on purpose; everywhere else is a real registration site.
	if strings.Contains(pass.Pkg.Path(), "internal/obs/live") {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			labeled, ok := registryMethods[sel.Sel.Name]
			if !ok {
				return true
			}
			recv := pass.Info.TypeOf(sel.X)
			if recv == nil || !namedTypeIs(recv, "internal/obs/live", "Registry") {
				return true
			}
			if len(call.Args) < 2 {
				return true // does not type-check anyway
			}
			checkMetricString(pass, call.Args[0], "metric name", func(name string) {
				if !live.ValidName(name) {
					pass.Reportf(call.Args[0].Pos(),
						"%q is not a valid Prometheus metric name", name)
					return
				}
				if !strings.HasPrefix(name, "ij_") {
					pass.Reportf(call.Args[0].Pos(),
						"metric %q must carry the ij_ prefix: this module's series share one namespace", name)
				}
			})
			checkMetricString(pass, call.Args[1], "help text", func(help string) {
				if help == "" {
					pass.Reportf(call.Args[1].Pos(),
						"metric help text must be a non-empty constant")
				}
			})
			if labeled {
				for _, arg := range call.Args[2:] {
					checkMetricString(pass, arg, "label name", func(label string) {
						if !live.ValidLabel(label) {
							pass.Reportf(arg.Pos(),
								"%q is not a valid Prometheus label name", label)
						}
					})
				}
			}
			return true
		})
	}
}

// checkMetricString requires arg to be a compile-time string constant and
// hands its value to check; a non-constant argument is itself the defect.
func checkMetricString(pass *Pass, arg ast.Expr, what string, check func(string)) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"registry %s must be a literal constant, not a runtime value", what)
		return
	}
	check(constant.StringVal(tv.Value))
}
