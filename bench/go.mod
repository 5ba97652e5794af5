module hierdrl/bench

go 1.22

require hierdrl v0.0.0

replace hierdrl => ../
