module github.com/factorable/weakkeys/bench

go 1.22

require github.com/factorable/weakkeys v0.0.0

replace github.com/factorable/weakkeys => ../
