// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form the paper states its flow problems (§III):
//
//	optimize  c·x   subject to   A x {<=,=,>=} b,   x >= 0.
//
// The paper formulates the maximum-flow, minimum-cost-flow, and both
// multicommodity problems as linear programs and notes that the Simplex
// Method solves the restricted-topology multicommodity case with integral
// optima "efficiently ... shown empirically to be a linear time algorithm"
// [31]. This package is that solver: Bland's rule for anti-cycling, phase 1
// with artificial variables, phase 2 on the caller's objective.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects the optimization direction.
type Sense int

const (
	Minimize Sense = iota
	Maximize
)

// Rel is a constraint relation.
type Rel int

const (
	LE Rel = iota // <=
	EQ            // =
	GE            // >=
)

// Status reports the outcome of Solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// ErrNotSolved is returned when the problem has no optimum (infeasible or
// unbounded); Solution.Status carries the reason.
var ErrNotSolved = errors.New("lp: no optimal solution")

type row struct {
	coefs map[int]float64
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. Create with NewProblem,
// populate with SetObjectiveCoef, SetSense and AddConstraint, then call
// Solve.
type Problem struct {
	nvars int
	obj   []float64
	sense Sense
	rows  []row
}

// NewProblem returns an empty LP with nvars nonnegative variables and a zero
// minimization objective.
func NewProblem(nvars int) *Problem {
	return &Problem{nvars: nvars, obj: make([]float64, nvars)}
}

// SetObjectiveCoef sets a single objective coefficient.
func (p *Problem) SetObjectiveCoef(v int, c float64) { p.obj[v] = c }

// SetSense sets the optimization direction.
func (p *Problem) SetSense(s Sense) { p.sense = s }

// AddConstraint appends a sparse constraint: sum over i of coefs[i] *
// x[vars[i]] rel rhs. Duplicate variable indices accumulate.
func (p *Problem) AddConstraint(vars []int, coefs []float64, rel Rel, rhs float64) {
	if len(vars) != len(coefs) {
		panic("lp.AddConstraint: vars/coefs length mismatch")
	}
	m := make(map[int]float64, len(vars))
	for i, v := range vars {
		if v < 0 || v >= p.nvars {
			panic(fmt.Sprintf("lp.AddConstraint: variable %d out of range", v))
		}
		m[v] += coefs[i]
	}
	p.rows = append(p.rows, row{coefs: m, rel: rel, rhs: rhs})
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64 // variable values (valid only when Status == Optimal)
	Objective float64   // objective value in the caller's sense
}

const eps = 1e-9

// Solve runs two-phase primal simplex and returns the optimum. A non-nil
// error is returned exactly when Status != Optimal.
func (p *Problem) Solve() (Solution, error) {
	m := len(p.rows)
	// Normalize every row to rhs >= 0 (flipping the relation when the row is
	// multiplied by -1), then assign columns: original vars, one
	// slack/surplus per inequality, one artificial per GE/EQ row.
	sign := make([]float64, m)
	rel := make([]Rel, m)
	for i, r := range p.rows {
		sign[i], rel[i] = 1, r.rel
		if r.rhs < 0 {
			sign[i] = -1
			switch r.rel {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
	}
	slackCol := make([]int, m)
	artCol := make([]int, m)
	next := p.nvars
	for i := range p.rows {
		slackCol[i] = -1
		if rel[i] != EQ {
			slackCol[i] = next
			next++
		}
	}
	total := next
	nArt := 0
	for i := range p.rows {
		artCol[i] = -1
		if rel[i] != LE {
			artCol[i] = total + nArt
			nArt++
		}
	}
	width := total + nArt + 1 // +1 for rhs column
	a := make([][]float64, m)
	basis := make([]int, m)
	for i := range a {
		a[i] = make([]float64, width)
	}
	for i, r := range p.rows {
		for v, c := range r.coefs {
			a[i][v] = sign[i] * c
		}
		a[i][width-1] = sign[i] * r.rhs
		switch rel[i] {
		case LE:
			a[i][slackCol[i]] = 1
			basis[i] = slackCol[i]
		case GE:
			a[i][slackCol[i]] = -1
			a[i][artCol[i]] = 1
			basis[i] = artCol[i]
		case EQ:
			a[i][artCol[i]] = 1
			basis[i] = artCol[i]
		}
	}

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		cost := make([]float64, width-1)
		for i := 0; i < m; i++ {
			if artCol[i] >= 0 {
				cost[artCol[i]] = 1
			}
		}
		obj, ok := simplexLoop(a, basis, cost, width)
		if !ok {
			return Solution{Status: Unbounded}, fmt.Errorf("%w: phase 1 unbounded (internal error)", ErrNotSolved)
		}
		if obj > 1e-7 {
			return Solution{Status: Infeasible}, fmt.Errorf("%w: infeasible", ErrNotSolved)
		}
		// Drive any artificial still in the basis out (degenerate rows).
		for i := 0; i < m; i++ {
			if basis[i] >= total {
				pivoted := false
				for j := 0; j < total; j++ {
					if math.Abs(a[i][j]) > eps {
						pivot(a, basis, i, j, width)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Row is all zeros across real columns: redundant
					// constraint; leave the artificial at value 0.
					continue
				}
			}
		}
	}

	// Phase 2: the caller's objective (converted to minimize).
	cost := make([]float64, width-1)
	for v := 0; v < p.nvars; v++ {
		if p.sense == Maximize {
			cost[v] = -p.obj[v]
		} else {
			cost[v] = p.obj[v]
		}
	}
	// Forbid artificials from re-entering.
	for i := 0; i < m; i++ {
		if artCol[i] >= 0 {
			cost[artCol[i]] = math.Inf(1)
		}
	}
	obj, ok := simplexLoop(a, basis, cost, width)
	if !ok {
		return Solution{Status: Unbounded}, fmt.Errorf("%w: unbounded", ErrNotSolved)
	}
	x := make([]float64, p.nvars)
	for i := 0; i < m; i++ {
		if basis[i] < p.nvars {
			x[basis[i]] = a[i][width-1]
		}
	}
	if p.sense == Maximize {
		obj = -obj
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// simplexLoop runs primal simplex with Bland's rule on the tableau until
// optimality (returns objective, true) or unboundedness (returns 0, false).
// The cost vector is over all columns except rhs; +Inf marks columns barred
// from entering.
func simplexLoop(a [][]float64, basis []int, cost []float64, width int) (float64, bool) {
	m := len(a)
	ncols := width - 1
	// Reduced costs are computed on demand: rc_j = cost_j - sum_i cost_basis[i] * a[i][j].
	y := make([]float64, m) // cost of basic variable per row
	for {
		for i := 0; i < m; i++ {
			c := cost[basis[i]]
			if math.IsInf(c, 1) {
				c = 0 // artificial stuck at zero in a redundant row
			}
			y[i] = c
		}
		// Bland: entering column = smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < ncols; j++ {
			if math.IsInf(cost[j], 1) {
				continue
			}
			rc := cost[j]
			for i := 0; i < m; i++ {
				if y[i] != 0 && a[i][j] != 0 {
					rc -= y[i] * a[i][j]
				}
			}
			if rc < -1e-9 {
				enter = j
				break
			}
		}
		if enter < 0 {
			// Optimal: objective = sum of y_i * rhs_i.
			var obj float64
			for i := 0; i < m; i++ {
				obj += y[i] * a[i][width-1]
			}
			return obj, true
		}
		// Ratio test; Bland ties broken by smallest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if a[i][enter] > eps {
				ratio := a[i][width-1] / a[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, false // unbounded
		}
		pivot(a, basis, leave, enter, width)
	}
}

// pivot performs a full tableau pivot on (row, col).
func pivot(a [][]float64, basis []int, row, col, width int) {
	pv := a[row][col]
	inv := 1 / pv
	for j := 0; j < width; j++ {
		a[row][j] *= inv
	}
	a[row][col] = 1 // exact
	for i := range a {
		if i == row {
			continue
		}
		f := a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			a[i][j] -= f * a[row][j]
		}
		a[i][col] = 0 // exact
	}
	basis[row] = col
}
