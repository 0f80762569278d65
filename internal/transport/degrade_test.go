package transport

import (
	"testing"
)

func TestSetLinkCapacityRejectsNonPositive(t *testing.T) {
	n := testNet(t)
	if err := n.SetLinkCapacity("enb1", "sw1", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if err := n.SetLinkCapacity("ghost", "sw1", 100); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestDegradationOversubscribesExistingReservations(t *testing.T) {
	n := testNet(t)
	p1, err := n.Reserve("p1", []string{"enb1", "sw1"}, 800)
	if err != nil {
		t.Fatal(err)
	}
	// Rain fade: the mmWave hop drops from 1000 to 300 Mbps.
	if err := n.SetLinkCapacity("enb1", "sw1", 300); err != nil {
		t.Fatal(err)
	}
	l, _ := n.Link("enb1", "sw1")
	if l.ResidualMbps() >= 0 {
		t.Fatalf("residual %.1f should be negative after fade", l.ResidualMbps())
	}
	over := n.OversubscribedPaths()
	if len(over) != 1 || over[0] != "p1" {
		t.Fatalf("oversubscribed %v", over)
	}
	// No new reservation can pass over the faded link.
	if _, err := n.Reserve("p2", []string{"enb1", "sw1"}, 10); err == nil {
		t.Fatal("reservation accepted on oversubscribed link")
	}
	// Growing the victim also fails.
	if _, err := n.ResizeEach([]*Reservation{p1}, 900); err == nil {
		t.Fatal("grow accepted on oversubscribed link")
	}
	// Shrinking below the new capacity clears the condition.
	if _, err := n.ResizeEach([]*Reservation{p1}, 200); err != nil {
		t.Fatalf("shrink rejected: %v", err)
	}
	if got := n.OversubscribedPaths(); len(got) != 0 {
		t.Fatalf("still oversubscribed: %v", got)
	}
}

func TestOversubscribedPathsIgnoresDownLinks(t *testing.T) {
	n := testNet(t)
	n.Reserve("p1", []string{"enb1", "sw1"}, 800)
	n.SetLinkCapacity("enb1", "sw1", 100)
	n.SetLinkUp("enb1", "sw1", false)
	if got := n.OversubscribedPaths(); len(got) != 0 {
		t.Fatalf("down link reported oversubscribed: %v", got)
	}
}

func TestRecoveredCapacityRestoresResidual(t *testing.T) {
	n := testNet(t)
	n.Reserve("p1", []string{"enb1", "sw1"}, 500)
	n.SetLinkCapacity("enb1", "sw1", 400)
	n.SetLinkCapacity("enb1", "sw1", 1000)
	l, _ := n.Link("enb1", "sw1")
	if l.ResidualMbps() != 500 {
		t.Fatalf("residual %.1f after recovery", l.ResidualMbps())
	}
}
