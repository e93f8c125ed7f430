// The benchmark is a module of its own so it builds from its own file
// and the root module's ./... never compiles or runs it. The import
// path keeps the repro/ prefix, which is what lets it use the served
// system's internal packages.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
