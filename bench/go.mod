// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never compiles or runs it. The
// module path sits under gpa/ so that Go's internal-package rule lets
// the layers pass call gpa/internal/... from outside the program.
module gpa/bench

go 1.24

require gpa v0.0.0

replace gpa => ../
