module kronlab/bench

go 1.22

require kronlab v0.0.0

replace kronlab => ../
