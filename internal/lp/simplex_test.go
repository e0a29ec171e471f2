package lp

import (
	"math"
	"math/rand"
	"testing"

	"rsin/internal/maxflow"
	"rsin/internal/testutil"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// setObjective installs a dense objective and its sense.
func setObjective(p *Problem, c []float64, sense Sense) {
	for v, cv := range c {
		p.SetObjectiveCoef(v, cv)
	}
	p.SetSense(sense)
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 => x=4, y=0, obj 12.
	p := NewProblem(2)
	setObjective(p, []float64{3, 2}, Maximize)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddConstraint([]int{0, 1}, []float64{1, 3}, LE, 6)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 12) || !approx(sol.X[0], 4) || !approx(sol.X[1], 0) {
		t.Fatalf("got %+v, want x=(4,0) obj=12", sol)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 6 => x=6, y=4, obj 24.
	p := NewProblem(2)
	setObjective(p, []float64{2, 3}, Minimize)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, GE, 10)
	p.AddConstraint([]int{0}, []float64{1}, LE, 6)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 24) || !approx(sol.X[0], 6) || !approx(sol.X[1], 4) {
		t.Fatalf("got %+v, want x=(6,4) obj=24", sol)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + 2y = 8, x - y = 2 => x=4, y=2, obj 6.
	p := NewProblem(2)
	setObjective(p, []float64{1, 1}, Minimize)
	p.AddConstraint([]int{0, 1}, []float64{1, 2}, EQ, 8)
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, EQ, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 4) || !approx(sol.X[1], 2) || !approx(sol.Objective, 6) {
		t.Fatalf("got %+v, want x=(4,2) obj=6", sol)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with rhs < 0 must flip to GE internally.
	// min x + y s.t. x - y <= -2 => y >= x + 2 => optimum x=0, y=2.
	p := NewProblem(2)
	setObjective(p, []float64{1, 1}, Minimize)
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, LE, -2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 0) || !approx(sol.X[1], 2) {
		t.Fatalf("got %+v, want (0,2)", sol)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	setObjective(p, []float64{1}, Minimize)
	p.AddConstraint([]int{0}, []float64{1}, LE, 1)
	p.AddConstraint([]int{0}, []float64{1}, GE, 2)
	sol, err := p.Solve()
	if err == nil || sol.Status != Infeasible {
		t.Fatalf("want infeasible, got %+v err=%v", sol, err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	setObjective(p, []float64{1, 1}, Maximize)
	p.AddConstraint([]int{0, 1}, []float64{1, -1}, LE, 1)
	sol, err := p.Solve()
	if err == nil || sol.Status != Unbounded {
		t.Fatalf("want unbounded, got %+v err=%v", sol, err)
	}
}

func TestRedundantConstraint(t *testing.T) {
	// Duplicate equality rows leave an artificial stuck in a zero row; the
	// solver must cope.
	p := NewProblem(2)
	setObjective(p, []float64{1, 2}, Minimize)
	p.AddConstraint([]int{0, 1}, []float64{1, 1}, EQ, 3)
	p.AddConstraint([]int{0, 1}, []float64{2, 2}, EQ, 6) // same hyperplane
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 3) || !approx(sol.X[0], 3) {
		t.Fatalf("got %+v, want x=(3,0) obj=3", sol)
	}
}

func TestDegenerateCycleGuard(t *testing.T) {
	// A classically degenerate LP (Beale-like); Bland's rule must terminate.
	p := NewProblem(4)
	setObjective(p, []float64{-0.75, 150, -0.02, 6}, Minimize)
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{0.25, -60, -0.04, 9}, LE, 0)
	p.AddConstraint([]int{0, 1, 2, 3}, []float64{0.5, -90, -0.02, 3}, LE, 0)
	p.AddConstraint([]int{2}, []float64{1}, LE, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -0.05) {
		t.Fatalf("objective %v, want -0.05", sol.Objective)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || Status(9).String() == "" {
		t.Fatal("Status.String broken")
	}
}

func TestDuplicateVarIndicesAccumulate(t *testing.T) {
	p := NewProblem(1)
	setObjective(p, []float64{1}, Maximize)
	p.AddConstraint([]int{0, 0}, []float64{1, 1}, LE, 4) // 2x <= 4
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 2) {
		t.Fatalf("x = %v, want 2", sol.X[0])
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	p := NewProblem(2)
	for _, fn := range []func(){
		func() { p.AddConstraint([]int{0}, []float64{1, 2}, LE, 0) },
		func() { p.AddConstraint([]int{5}, []float64{1}, LE, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad input accepted")
				}
			}()
			fn()
		}()
	}
}

// solve2or3 solves a square linear system of size 2 or 3 by Gaussian
// elimination, returning false if singular.
func solve2or3(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if math.Abs(m[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for j := col; j <= n; j++ {
			m[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			for j := col; j <= n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x, true
}

// TestSimplexMatchesVertexEnumeration cross-checks the solver against
// exhaustive vertex enumeration on random small bounded LPs: the optimum
// of a bounded feasible LP is attained at a vertex, i.e. at the
// intersection of nvars active constraints (including nonnegativity).
func TestSimplexMatchesVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	for trial := 0; trial < 200; trial++ {
		nvars := 2 + rng.Intn(2) // 2 or 3
		ncons := 2 + rng.Intn(3)
		// Rows: random <= constraints with nonneg coefficients and positive
		// rhs (0 feasible), plus box bounds x_i <= B for boundedness.
		type cons struct {
			coefs []float64
			rhs   float64
		}
		var rows []cons
		for c := 0; c < ncons; c++ {
			coefs := make([]float64, nvars)
			for v := range coefs {
				coefs[v] = float64(rng.Intn(5))
			}
			rows = append(rows, cons{coefs, float64(1 + rng.Intn(20))})
		}
		for v := 0; v < nvars; v++ {
			coefs := make([]float64, nvars)
			coefs[v] = 1
			rows = append(rows, cons{coefs, float64(5 + rng.Intn(10))})
		}
		obj := make([]float64, nvars)
		for v := range obj {
			obj[v] = float64(rng.Intn(7)) - 1
		}

		p := NewProblem(nvars)
		setObjective(p, obj, Maximize)
		vars := make([]int, nvars)
		for v := range vars {
			vars[v] = v
		}
		for _, r := range rows {
			p.AddConstraint(vars, r.coefs, LE, r.rhs)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Vertex enumeration: all choices of nvars active hyperplanes from
		// {constraints} ∪ {x_v = 0}.
		type plane struct {
			coefs []float64
			rhs   float64
		}
		var planes []plane
		for _, r := range rows {
			planes = append(planes, plane{r.coefs, r.rhs})
		}
		for v := 0; v < nvars; v++ {
			coefs := make([]float64, nvars)
			coefs[v] = 1
			planes = append(planes, plane{coefs, 0})
		}
		best := math.Inf(-1)
		idx := make([]int, nvars)
		var rec func(start, k int)
		rec = func(start, k int) {
			if k == nvars {
				a := make([][]float64, nvars)
				b := make([]float64, nvars)
				for i, pi := range idx {
					a[i] = planes[pi].coefs
					b[i] = planes[pi].rhs
				}
				x, ok := solve2or3(a, b)
				if !ok {
					return
				}
				for v := 0; v < nvars; v++ {
					if x[v] < -1e-7 {
						return
					}
				}
				for _, r := range rows {
					dot := 0.0
					for v := 0; v < nvars; v++ {
						dot += r.coefs[v] * x[v]
					}
					if dot > r.rhs+1e-7 {
						return
					}
				}
				val := 0.0
				for v := 0; v < nvars; v++ {
					val += obj[v] * x[v]
				}
				if val > best {
					best = val
				}
				return
			}
			for i := start; i < len(planes); i++ {
				idx[k] = i
				rec(i+1, k+1)
			}
		}
		rec(0, 0)
		if math.IsInf(best, -1) {
			t.Fatalf("trial %d: vertex enumeration found no feasible vertex", trial)
		}
		if math.Abs(sol.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: simplex %v vs vertex enumeration %v", trial, sol.Objective, best)
		}
	}
}

// TestLPMaxFlowMatchesDinic formulates max flow exactly as the paper's
// "Maximum Flow Problem" LP (§III-A) and checks the optimum against Dinic
// on random networks — the LP relaxation of a single-commodity flow has an
// integral optimum equal to the combinatorial max flow.
func TestLPMaxFlowMatchesDinic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := testutil.RandomNetwork(rng, 2+rng.Intn(8), 0.3, 6, 3)
		want := maxflow.Dinic(g.Clone()).Value

		// Variables: one per arc, plus F (the last variable).
		m := len(g.Arcs)
		p := NewProblem(m + 1)
		obj := make([]float64, m+1)
		obj[m] = 1
		setObjective(p, obj, Maximize)
		for i := range g.Arcs {
			p.AddConstraint([]int{i}, []float64{1}, LE, float64(g.Arcs[i].Cap))
		}
		for v := 0; v < g.NumNodes(); v++ {
			vars := []int{}
			coefs := []float64{}
			for _, id := range g.Out(v) {
				vars = append(vars, id)
				coefs = append(coefs, 1)
			}
			for _, id := range g.In(v) {
				vars = append(vars, id)
				coefs = append(coefs, -1)
			}
			rhs := 0.0
			switch v {
			case g.Source:
				vars = append(vars, m)
				coefs = append(coefs, -1) // out - in - F = 0
			case g.Sink:
				vars = append(vars, m)
				coefs = append(coefs, 1) // out - in + F = 0
			}
			p.AddConstraint(vars, coefs, EQ, rhs)
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !approx(sol.Objective, float64(want)) {
			t.Fatalf("trial %d: LP max flow %v, Dinic %d", trial, sol.Objective, want)
		}
	}
}
