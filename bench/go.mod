module pytfhe/bench

go 1.22

require pytfhe v0.0.0

replace pytfhe => ../
