package rms

import (
	"slices"

	"rmscale/internal/grid"
)

// Model is one row of the paper's roster: the model's name, which is
// the wire and CLI currency ("CENTRAL", "S-I", ...), the one-line
// protocol description of the paper's Section 3.3 that the CLI's roster
// prints, and the model's constructor.
type Model struct {
	Name, Desc string
	build      func() grid.Policy
}

// models is the roster in the paper's order. All, Names, ByName and
// Models read it, so a row added here is built, named and printed
// everywhere; the models dispatch through grid.Policy, so no code
// switches over them.
var models = []Model{
	{"CENTRAL", "one scheduler decides for the whole pool", func() grid.Policy { return NewCentral() }},
	{"LOWEST", "poll-on-arrival load balancing (Zhou)", func() grid.Policy { return NewLowest() }},
	{"RESERVE", "underloaded clusters register reservations ahead of time", func() grid.Policy { return NewReserve() }},
	{"AUCTION", "underloaded clusters auction capacity; loaded clusters bid", func() grid.Policy { return NewAuction() }},
	{"S-I", "sender-initiated superscheduler over grid middleware", func() grid.Policy { return NewSenderInitiated() }},
	{"R-I", "receiver-initiated volunteering over grid middleware", func() grid.Policy { return NewReceiverInitiated() }},
	{"Sy-I", "symmetric combination of S-I and R-I", func() grid.Policy { return NewSymmetric() }},
}

// Models returns the paper's roster in its order.
func Models() []Model { return slices.Clone(models) }
