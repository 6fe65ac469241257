package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"chiron/internal/accuracy"
)

func TestBuildEnvValidation(t *testing.T) {
	if _, err := BuildEnv(Setup{Nodes: 0, Preset: accuracy.PresetMNIST, Budget: 100, Seed: 1}); err == nil {
		t.Fatal("accepted zero nodes")
	}
	env, err := BuildEnv(Setup{Nodes: 3, Preset: accuracy.PresetMNIST, Budget: 100, Seed: 1})
	if err != nil {
		t.Fatalf("BuildEnv: %v", err)
	}
	if env.NumNodes() != 3 || env.Ledger().Budget() != 100 {
		t.Fatalf("env %d nodes budget %v", env.NumNodes(), env.Ledger().Budget())
	}
	// Lambda override.
	env2, err := BuildEnv(Setup{Nodes: 3, Preset: accuracy.PresetMNIST, Budget: 100, Seed: 1, Lambda: 555})
	if err != nil {
		t.Fatalf("BuildEnv: %v", err)
	}
	if env2.Config().Lambda != 555 {
		t.Fatalf("lambda %v, want 555", env2.Config().Lambda)
	}
}

func TestBuildEnvDeterministic(t *testing.T) {
	a, err := BuildEnv(Setup{Nodes: 4, Preset: accuracy.PresetMNIST, Budget: 100, Seed: 9})
	if err != nil {
		t.Fatalf("BuildEnv: %v", err)
	}
	b, err := BuildEnv(Setup{Nodes: 4, Preset: accuracy.PresetMNIST, Budget: 100, Seed: 9})
	if err != nil {
		t.Fatalf("BuildEnv: %v", err)
	}
	for i := range a.Nodes() {
		if a.Nodes()[i].DataBits != b.Nodes()[i].DataBits {
			t.Fatal("fleet not deterministic for equal seeds")
		}
	}
}

func TestBuildMechanismAllKinds(t *testing.T) {
	for _, kind := range []MechanismKind{KindChiron, KindDRLBased, KindGreedy, KindUniform, KindEqualTimeOracle} {
		env, err := BuildEnv(Setup{Nodes: 2, Preset: accuracy.PresetMNIST, Budget: 50, Seed: 2})
		if err != nil {
			t.Fatalf("BuildEnv: %v", err)
		}
		m, err := BuildMechanism(kind, env, 2)
		if err != nil {
			t.Fatalf("BuildMechanism(%v): %v", kind, err)
		}
		if m.Name() != kind.String() {
			t.Fatalf("name %q, want %q", m.Name(), kind.String())
		}
	}
	env, _ := BuildEnv(Setup{Nodes: 2, Preset: accuracy.PresetMNIST, Budget: 50, Seed: 2})
	if _, err := BuildMechanism(MechanismKind(99), env, 2); err == nil {
		t.Fatal("accepted unknown kind")
	}
}

func TestComparisonParamsValidation(t *testing.T) {
	good := ComparisonParams{
		Preset: accuracy.PresetMNIST, Nodes: 2, Budgets: []float64{50},
		Mechanisms: []MechanismKind{KindUniform}, TrainEpisodes: 0, EvalEpisodes: 1, Seed: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	bad := good
	bad.Budgets = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted no budgets")
	}
	bad = good
	bad.Mechanisms = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted no mechanisms")
	}
	bad = good
	bad.EvalEpisodes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero eval episodes")
	}
}

func TestScaleClampsToOne(t *testing.T) {
	p := ComparisonParams{TrainEpisodes: 500, EvalEpisodes: 5}
	s := p.Scale(0.001)
	if s.TrainEpisodes != 1 || s.EvalEpisodes != 1 {
		t.Fatalf("scaled to %d/%d, want 1/1", s.TrainEpisodes, s.EvalEpisodes)
	}
	s = p.Scale(0.5)
	if s.TrainEpisodes != 250 {
		t.Fatalf("scaled to %d, want 250", s.TrainEpisodes)
	}
	c := ConvergenceParams{Episodes: 100}
	if c.Scale(0.1).Episodes != 10 {
		t.Fatalf("convergence scale wrong")
	}
}

func TestRunComparisonQuick(t *testing.T) {
	params := ComparisonParams{
		Preset: accuracy.PresetMNIST, Nodes: 3,
		Budgets:      []float64{60, 120},
		Mechanisms:   []MechanismKind{KindUniform, KindEqualTimeOracle},
		EvalEpisodes: 2, Seed: 4,
	}
	cmp, err := RunComparison(params)
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	if len(cmp.Points) != 2 {
		t.Fatalf("points %d", len(cmp.Points))
	}
	for _, pt := range cmp.Points {
		if len(pt.Results) != 2 {
			t.Fatalf("budget %v has %d results", pt.Budget, len(pt.Results))
		}
		for name, r := range pt.Results {
			if r.Rounds <= 0 {
				t.Fatalf("%s at %v: %d rounds", name, pt.Budget, r.Rounds)
			}
		}
	}
	// More budget must never hurt the oracle's accuracy.
	a := cmp.Points[0].Results["EqualTime-Oracle"].FinalAccuracy
	b := cmp.Points[1].Results["EqualTime-Oracle"].FinalAccuracy
	if b < a-0.02 {
		t.Fatalf("accuracy fell with budget: %v -> %v", a, b)
	}
}

func TestRunConvergenceQuick(t *testing.T) {
	params := ConvergenceParams{
		Preset: accuracy.PresetMNIST, Nodes: 2, Budget: 60,
		Mechanism: KindChiron, Episodes: 4, Window: 2, Seed: 4,
	}
	conv, err := RunConvergence(params)
	if err != nil {
		t.Fatalf("RunConvergence: %v", err)
	}
	if len(conv.Episodes) != 4 || len(conv.SmoothedReward) != 4 {
		t.Fatalf("lengths %d/%d", len(conv.Episodes), len(conv.SmoothedReward))
	}
	// Static mechanisms cannot produce convergence curves.
	params.Mechanism = KindUniform
	if _, err := RunConvergence(params); err == nil {
		t.Fatal("accepted untrainable mechanism")
	}
}

func TestSmoothWindow(t *testing.T) {
	out := smooth([]float64{1, 2, 3, 4, 5}, 2)
	want := []float64{1, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("smooth[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestArtifactRegistry(t *testing.T) {
	if len(Artifacts()) != 7 {
		t.Fatalf("artifact count %d, want 7", len(Artifacts()))
	}
	for _, a := range Artifacts() {
		desc := Describe(a)
		if strings.Contains(desc, "unknown") {
			t.Fatalf("artifact %s has no description", a)
		}
		// Every paper artifact is exactly one of a budget sweep
		// (fig4, fig5, fig6, tab1) and a learning curve (fig3, fig7a, fig7b).
		_, cmpErr := ComparisonDefaults(a)
		_, convErr := ConvergenceDefaults(a)
		switch a {
		case Fig4, Fig5, Fig6, Tab1:
			if cmpErr != nil || convErr == nil {
				t.Fatalf("%s: comparison defaults %v, convergence defaults %v; want only comparison", a, cmpErr, convErr)
			}
		default:
			if convErr != nil || cmpErr == nil {
				t.Fatalf("%s: convergence defaults %v, comparison defaults %v; want only convergence", a, convErr, cmpErr)
			}
		}
	}
	if Describe(Artifact("nope")) == "" {
		t.Fatal("unknown artifact has empty description")
	}
}

func TestDefaultsMatchPaperSettings(t *testing.T) {
	fig4, err := ComparisonDefaults(Fig4)
	if err != nil {
		t.Fatalf("ComparisonDefaults: %v", err)
	}
	if fig4.Nodes != 5 || fig4.TrainEpisodes != 500 {
		t.Fatalf("fig4 defaults %d nodes %d episodes", fig4.Nodes, fig4.TrainEpisodes)
	}
	tab1, err := ComparisonDefaults(Tab1)
	if err != nil {
		t.Fatalf("ComparisonDefaults: %v", err)
	}
	if tab1.Nodes != 100 {
		t.Fatalf("tab1 nodes %d, want 100", tab1.Nodes)
	}
	wantBudgets := []float64{140, 220, 300, 380}
	for i, b := range wantBudgets {
		if tab1.Budgets[i] != b {
			t.Fatalf("tab1 budgets %v, want %v", tab1.Budgets, wantBudgets)
		}
	}
	fig7a, err := ConvergenceDefaults(Fig7a)
	if err != nil {
		t.Fatalf("ConvergenceDefaults: %v", err)
	}
	if fig7a.Nodes != 100 || fig7a.Episodes != 500 {
		t.Fatalf("fig7a defaults %d nodes %d episodes", fig7a.Nodes, fig7a.Episodes)
	}
}

func TestRunRejectsBadScale(t *testing.T) {
	if _, _, err := RunJobs(Fig3, 0, 1); err == nil {
		t.Fatal("accepted scale 0")
	}
	if _, _, err := RunJobs(Fig3, 1.5, 1); err == nil {
		t.Fatal("accepted scale > 1")
	}
	if _, _, err := RunJobs(Fig3, math.NaN(), 1); err == nil {
		t.Fatal("accepted scale NaN")
	}
	if _, _, err := RunJobs(Artifact("nope"), 0.5, 1); err == nil {
		t.Fatal("accepted unknown artifact")
	}
}

func TestRenderAndCSV(t *testing.T) {
	params := ComparisonParams{
		Preset: accuracy.PresetMNIST, Nodes: 2, Budgets: []float64{60},
		Mechanisms: []MechanismKind{KindUniform}, EvalEpisodes: 1, Seed: 4,
	}
	cmp, err := RunComparison(params)
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	text := RenderComparison(Fig4, cmp)
	if !strings.Contains(text, "Uniform") || !strings.Contains(text, "60") {
		t.Fatalf("render missing content:\n%s", text)
	}
	var buf bytes.Buffer
	if err := WriteComparisonCSV(&buf, cmp); err != nil {
		t.Fatalf("WriteComparisonCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 { // header + one row
		t.Fatalf("csv lines %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "budget,mechanism,accuracy") {
		t.Fatalf("csv header %q", lines[0])
	}

	convParams := ConvergenceParams{
		Preset: accuracy.PresetMNIST, Nodes: 2, Budget: 60,
		Mechanism: KindChiron, Episodes: 3, Window: 2, Seed: 4,
	}
	conv, err := RunConvergence(convParams)
	if err != nil {
		t.Fatalf("RunConvergence: %v", err)
	}
	text = RenderConvergence(Fig3, conv)
	if !strings.Contains(text, "episode") {
		t.Fatalf("convergence render missing header:\n%s", text)
	}
	buf.Reset()
	if err := WriteConvergenceCSV(&buf, conv); err != nil {
		t.Fatalf("WriteConvergenceCSV: %v", err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 4 {
		t.Fatalf("convergence csv lines %d", len(lines))
	}
}

func TestSortedNamesChironFirst(t *testing.T) {
	params := ComparisonParams{
		Preset: accuracy.PresetMNIST, Nodes: 2, Budgets: []float64{60},
		Mechanisms:   []MechanismKind{KindUniform, KindEqualTimeOracle},
		EvalEpisodes: 1, Seed: 4,
	}
	cmp, err := RunComparison(params)
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	names := sortedNames(cmp.Points[0])
	if len(names) != 2 {
		t.Fatalf("names %v", names)
	}
	if names[0] > names[1] {
		t.Fatalf("names not sorted: %v", names)
	}
}
