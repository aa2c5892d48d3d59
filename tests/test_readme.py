import doctest
import os
import re
import shlex

from heckemod.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_python_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README.md", README, 0)
    assert len(test.examples) == 5
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == (0, len(test.examples))


def test_readme_console_examples_print_what_the_readme_shows(capsys):
    # each "$ heckemod ..." line of the console block, through main() with
    # no cache, must print exactly the lines under it
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```\n(\$ heckemod .*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    examples = re.findall(r"^\$ heckemod (.*)\n((?:(?!\$ ).*\n)*)", blocks[0], re.M)
    assert len(examples) == 7
    for command, shown in examples:
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == shown, command
