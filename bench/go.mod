// The benchmark is a module of its own so that it has its own build
// file and the root module's `go build ./... && go test ./...` never
// sees it. Its path keeps the `mage/` prefix, which is what lets it
// import mage/internal/...; the replace points at the checkout it
// sits in.
module mage/bench

go 1.22

require mage v0.0.0

replace mage => ../
