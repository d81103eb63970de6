"""Repeats the acceptance criteria's ACCEPTANCE lines in the terminal
summary: pytest captures each test's output, so without ``-s`` the lines
would show only for a failing test."""


def pytest_terminal_summary(terminalreporter):
    lines = sorted(line for reports in terminalreporter.stats.values() for rep in reports
                   if getattr(rep, "when", None) == "call"
                   for line in rep.capstdout.splitlines() if line.startswith("ACCEPTANCE "))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
