"""The line rule of every text file the toolkit reads."""


def split_lines(text: str) -> list[str]:
    """Lines end at "\\n" alone, each losing one trailing "\\r"; str.splitlines would also
    end one at "\\r", "\\v", "\\f", "\\x1c"-"\\x1e", U+0085, U+2028 or U+2029 in a value."""
    lines = text.split("\n")
    return [line.removesuffix("\r") for line in lines] if "\r" in text else lines
