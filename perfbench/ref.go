package main

import (
	"fmt"
	"math/bits"
	"strings"

	"camus/internal/lang"
)

// The reference side of the benchmark: subscriptions are evaluated by
// walking the generated lang.Rule trees directly against each message's
// field values, with no compiler, BDD, table or pipeline involved. The
// program's deliveries are checked against these sets.

// portSet is a bitset over switch ports 0..255.
type portSet [4]uint64

func (s *portSet) add(p int)     { s[p>>6] |= 1 << (uint(p) & 63) }
func (s portSet) has(p int) bool { return s[p>>6]&(1<<(uint(p)&63)) != 0 }
func (s portSet) empty() bool    { return s == portSet{} }
func (s portSet) count() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) + bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

func (s portSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	s.each(func(p int) {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", p)
	})
	b.WriteByte('}')
	return b.String()
}

// each calls fn for every port in the set, in ascending order.
func (s portSet) each(fn func(p int)) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*64 + b)
			word &= word - 1
		}
	}
}

// msgFields are the add-order values a rule can test.
type msgFields struct {
	stock  string
	price  uint64
	shares uint64
}

// refEval evaluates a rule set by direct interpretation. Rules whose
// condition has a top-level conjunct "stock == S" are indexed by S, so a
// message is tested only against its own symbol's rules plus the rules
// with no such conjunct; the index is an exact shortcut, since a rule it
// skips cannot match.
type refEval struct {
	rules   []lang.Rule
	byStock map[string][]int
	other   []int
}

func newRefEval(rules []lang.Rule) *refEval {
	r := &refEval{rules: rules, byStock: make(map[string][]int)}
	for i, rule := range rules {
		if s, ok := stockConjunct(rule.Cond); ok {
			r.byStock[s] = append(r.byStock[s], i)
		} else {
			r.other = append(r.other, i)
		}
	}
	return r
}

// stockConjunct finds a "stock == S" conjunct at the top of an And tree.
func stockConjunct(e lang.Expr) (string, bool) {
	switch x := e.(type) {
	case lang.And:
		if s, ok := stockConjunct(x.L); ok {
			return s, true
		}
		return stockConjunct(x.R)
	case lang.Cmp:
		if fieldName(x.LHS.Field) == "stock" && x.Op == lang.OpEq && x.RHS.Kind == lang.ValSymbol {
			return x.RHS.Sym, true
		}
	}
	return "", false
}

// ports returns the union of the fwd() ports of every rule m satisfies.
func (r *refEval) ports(m msgFields) portSet {
	var out portSet
	apply := func(i int) {
		rule := &r.rules[i]
		if !evalExpr(rule.Cond, m) {
			return
		}
		for _, a := range rule.Actions {
			if a.Kind == lang.ActFwd {
				for _, p := range a.Ports {
					out.add(p)
				}
			}
		}
	}
	for _, i := range r.byStock[m.stock] {
		apply(i)
	}
	for _, i := range r.other {
		apply(i)
	}
	return out
}

// fieldName strips a header prefix ("add_order.price" -> "price").
func fieldName(f string) string {
	if i := strings.LastIndexByte(f, '.'); i >= 0 {
		return f[i+1:]
	}
	return f
}

// evalExpr interprets a condition. The generated workloads use only
// stateless comparisons on stock, price and shares; anything else is a
// benchmark bug and panics.
func evalExpr(e lang.Expr, m msgFields) bool {
	switch x := e.(type) {
	case lang.True:
		return true
	case lang.And:
		return evalExpr(x.L, m) && evalExpr(x.R, m)
	case lang.Or:
		return evalExpr(x.L, m) || evalExpr(x.R, m)
	case lang.Not:
		return !evalExpr(x.X, m)
	case lang.Cmp:
		if x.LHS.Agg != "" || x.LHS.Key != "" {
			panic(fmt.Sprintf("reference: stateful operand %s", x.LHS))
		}
		switch fieldName(x.LHS.Field) {
		case "stock":
			if x.RHS.Kind != lang.ValSymbol {
				panic(fmt.Sprintf("reference: non-symbol stock test %s", x))
			}
			switch x.Op {
			case lang.OpEq:
				return m.stock == x.RHS.Sym
			case lang.OpNeq:
				return m.stock != x.RHS.Sym
			}
			panic(fmt.Sprintf("reference: ordered stock test %s", x))
		case "price":
			return cmpNum(m.price, x.Op, x.RHS.Num)
		case "shares":
			return cmpNum(m.shares, x.Op, x.RHS.Num)
		}
		panic(fmt.Sprintf("reference: unknown field %q", x.LHS.Field))
	}
	panic(fmt.Sprintf("reference: unsupported expression %T", e))
}

func cmpNum(v uint64, op lang.CmpOp, c uint64) bool {
	switch op {
	case lang.OpEq:
		return v == c
	case lang.OpNeq:
		return v != c
	case lang.OpLt:
		return v < c
	case lang.OpGt:
		return v > c
	case lang.OpLe:
		return v <= c
	case lang.OpGe:
		return v >= c
	}
	panic(fmt.Sprintf("reference: unknown operator %d", op))
}
