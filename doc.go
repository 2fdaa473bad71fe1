// Package repro is a from-scratch Go reproduction of "Efficient OLAP
// Query Processing in Distributed Data Warehouses" (Akinde, Böhlen,
// Johnson, Lakshmanan, Srivastava, 2002) — the Skalla system.
//
// The public API lives in package repro/skalla; the tests checking the
// shapes of the paper's evaluation (Figs. 2-5) live in
// skalla/figures_test.go. See README.md for the tour and DESIGN.md for
// the system inventory.
package repro
