module streamrpq/benchmark

go 1.24

require streamrpq v0.0.0

replace streamrpq => ../
